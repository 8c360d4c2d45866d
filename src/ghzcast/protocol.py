"""End-to-end protocol runs: distribute, validate, embed, decrypt, exchange.

One run moves through fixed stages. The broker first sends every agent their
qubit streams with decoys interleaved (distribution), then announces decoy
positions and compares the agents' Hadamard-basis outcomes against her
preparation records (validation). Only if validation passes does she embed
the payload through phase kickback on her own qubits, after which every
party decrypts with Hadamards and measures. The closing classical exchange
sends each register segment to the one agent whose secret it protects, and
never routes agent data back to the broker. Recovery is the fold of all n
registers, split by the segment layout: segment t of it is what agent t
folds from the segments it then holds (see recover_secret).

Ordering is load bearing: an abort happens strictly before the embedding
stage, so an aborted run contains no secret-dependent quantum operation at
all.

The transcript is typed data: its traffic is a MessageTable of routes,
which name parties by index (see messages), and payload entries, bits and
ints, so nothing parses it and only the CLI renders text. The registers
are one bit array per run, read as bit vectors only on request.

run_trials simulates many runs of one scenario, each from its own seed, by
stacking their tuple streams: every stage makes one kernel call per stack,
and each run still draws from its own generators in the order a lone run
would, so a stacked run is the run execute_run makes at the same seed. A
stack's stream is its few distinct tuple states plus the index of each
tuple's (see distribution), so every stage simulates each distinct state
once however many runs share it: the GHZ row, or after embedding it and its
phase-flipped twin, and the decoy sign patterns. A stack is bounded by what
it allocates, its distinct amplitudes plus its per-run arrays (see
Scenario.stack_entries), so a stack of honest runs holds tens of them. The
classical layer works per stack too: the decoy reports, the registers and
the exchanged segments of all runs are arrays, which each run's transcript
slices. Measured decoy tuples are not kept, and decryption keeps of each
information tuple only the qubits an adversary holds, the part her late
measurement needs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .adversary import (
    MEASURE_RESEND,
    RANDOM_BASIS,
    EveRecord,
    EveStrategy,
    attack_tuple,
    eve_postprocess,
)
from .bitvec import BitVector, SegmentLayout, bit_vectors, concat_secrets, split
from . import distribution
from .distribution import DistributionPlan, build_plan
from .messages import (
    ALL_AGENTS,
    BROKER,
    STAGE_DECRYPTION,
    STAGE_DISTRIBUTION,
    STAGE_EMBEDDING,
    STAGE_EXCHANGE,
    STAGE_PREAMBLE,
    STAGE_RECOVERY,
    STAGE_VALIDATION,
    MessageTable,
    Route,
)
from .statevec import MAX_QUBITS, check_rows, phase_flip_rows, sample_rows

__all__ = [
    "Scenario",
    "ValidationReport",
    "Registers",
    "Transcript",
    "RunOutcome",
    "embed_secret",
    "decrypt_and_measure",
    "run_validation",
    "exchange_routes",
    "classical_exchange",
    "recover_secret",
    "run_trials",
    "execute_run",
    "run_protocol",
    "check_transcript_secrecy",
]

# Scenarios whose whole tuple stream, one state per tuple, would need more
# than this many amplitudes are refused (2**25 float64 amplitudes are
# 256 MiB).
MAX_STREAM_AMPLITUDES = 1 << 25
# run_trials simulates as many runs together as keep Scenario.stack_entries
# within this many array entries (2 MiB of float64), at least one: enough
# tuples to spread per-call overhead over tens of runs, few enough that a
# stack and the temporaries of a measurement stay small for any trial count.
STACK_ENTRIES = 1 << 18

ABORTED_STAGES = (STAGE_PREAMBLE, STAGE_DISTRIBUTION, STAGE_VALIDATION)
POST_VALIDATION_STAGES = (STAGE_EMBEDDING, STAGE_DECRYPTION, STAGE_EXCHANGE, STAGE_RECOVERY)
COMPLETED_STAGES = ABORTED_STAGES + POST_VALIDATION_STAGES


@dataclass(frozen=True)
class Scenario:
    """Full configuration of one protocol run.

    secrets holds one bit vector per agent, agent 0 first. d defaults to the
    payload length when left unset. threshold_fraction scales the number of
    transmitted decoy qubits into the abort threshold.
    """

    n: int
    secrets: tuple[BitVector, ...]
    d: int | None = None
    eve: EveStrategy = EveStrategy()
    noise_p: float = 0.0
    threshold_fraction: float = 0.125
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need a broker and at least one agent")
        if len(self.secrets) != self.n - 1:
            raise ValueError(f"need {self.n - 1} secrets, got {len(self.secrets)}")
        if any(len(s) == 0 for s in self.secrets):
            raise ValueError("every secret must be non-empty")
        if self.d is not None and self.d < 0:
            raise ValueError("d must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0.0 <= self.noise_p <= 1.0:
            raise ValueError("noise_p must lie in [0, 1]")
        if not 0.0 < self.threshold_fraction < 1.0:
            raise ValueError("threshold_fraction must lie strictly between 0 and 1")
        self.eve.validate_for(self.n)
        qubits = self.tuple_qubits
        if qubits > MAX_QUBITS:
            raise ValueError(
                f"tuples of {qubits} qubits, Eve's included, exceed the cap of {MAX_QUBITS}"
            )
        if self.stream_amplitudes > MAX_STREAM_AMPLITUDES:
            raise ValueError(
                f"a stream of {self.payload_length + self.resolved_d} tuples of {qubits} "
                f"qubits needs {self.stream_amplitudes} amplitudes, over the cap of "
                f"{MAX_STREAM_AMPLITUDES}"
            )

    @property
    def payload_length(self) -> int:
        return sum(len(s) for s in self.secrets)

    @property
    def resolved_d(self) -> int:
        return self.payload_length if self.d is None else self.d

    @property
    def tuple_qubits(self) -> int:
        """Qubits of one tuple in flight, Eve's included."""
        return self.n + self.eve.extra_qubits(self.n)

    @property
    def stream_length(self) -> int:
        """Tuples of one run's stream."""
        return self.payload_length + self.resolved_d

    @property
    def stream_amplitudes(self) -> int:
        """Amplitudes of one run's whole tuple stream, one state per tuple."""
        return self.stream_length << self.tuple_qubits

    @property
    def distinct_states(self) -> int:
        """Most distinct tuple states one stage of a stack holds, for any run count.

        Information tuples share the GHZ row, after embedding it and its
        phase-flipped twin, and a decoy is one of 2**n sign patterns.
        Measure-resend splits a state once per mask of Eve's bases and
        outcome of hers; the other attacks map states one to one.
        """
        branches = 1
        if self.eve.tag == MEASURE_RESEND:
            masks = 1 << self.eve.k if self.eve.basis_policy == RANDOM_BASIS else 1
            branches = masks << self.eve.k
        return (1 + (1 << self.n)) * branches

    @property
    def run_entries(self) -> int:
        """Array entries a run adds to a stack besides the distinct states.

        Per tuple: its index, draws, bits and reports, a few entries per
        qubit, and the residual of the qubits Eve keeps. Per run: its two
        generators and its transcript's objects, about 4 KiB.
        """
        per_tuple = 4 * self.tuple_qubits + (1 << (self.tuple_qubits - self.n))
        return self.stream_length * per_tuple + 512

    def stack_entries(self, runs: int) -> int:
        """Array entries a stack of runs allocates: its distinct amplitudes
        plus what each run adds. A stage holds at most distinct_states
        states, and never more than one per tuple."""
        distinct = min(runs * self.stream_length, self.distinct_states)
        return (distinct << self.tuple_qubits) + runs * self.run_entries

    def stack_runs(self, entries: int) -> int:
        """The most runs whose stack_entries fit in entries, and at least one.

        A stack fits if it would fit with one state per tuple (dense) or
        with every distinct state the scenario can reach (shared).
        """
        dense = entries // (self.run_entries + self.stream_amplitudes)
        shared = (entries - (self.distinct_states << self.tuple_qubits)) // self.run_entries
        return max(1, dense, shared)


@dataclass(eq=False)
class ValidationReport:
    """Decoy comparison of a stack of runs, as run_validation returns it.

    wrong is a (runs, d, n - 1) bit array: per run, one row per decoy in
    stream order and one column per agent slot, set where the agent's report
    differs from the broker's record. run(t) slices out run t's own report,
    with a (d, n - 1) array. decoy_checks and errors total the report. The
    threshold is threshold_fraction times one run's transmitted decoy
    qubits, d * (n - 1); the verdict is a run's, fail exactly when its
    errors reach the threshold, so a stack has none.
    """

    wrong: np.ndarray
    threshold: float

    @property
    def decoy_checks(self) -> int:
        return self.wrong.size

    @property
    def errors(self) -> int:
        return int(np.count_nonzero(self.wrong))

    @property
    def failed(self) -> bool:
        if self.wrong.ndim != 2:
            raise ValueError("a stack of runs has no verdict; read it from run(t)")
        return self.decoy_checks > 0 and self.errors >= self.threshold

    @property
    def verdict(self) -> str:
        return "fail" if self.failed else "pass"

    def run(self, t: int) -> ValidationReport:
        """Run t's own report."""
        return ValidationReport(self.wrong[t], self.threshold)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ValidationReport):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )


@dataclass
class Registers:
    """Measured m-bit registers, broker plus one per agent (agent 0 first)."""

    broker: BitVector
    agents: tuple[BitVector, ...]


@dataclass(eq=False)
class Transcript:
    """Everything observable about one run, including all classical traffic.

    messages holds the traffic in sending order as columns. register_bits
    is the (n, m) bit array of the measured registers, party p's in row p
    with the broker's last, or None when the run aborted; registers reads
    it as bit vectors.
    """

    layout: SegmentLayout
    stream_length: int
    decoy_positions: tuple[int, ...]
    stages: tuple[str, ...]
    messages: MessageTable
    validation: ValidationReport
    aborted: bool
    register_bits: np.ndarray | None
    recovered: tuple[BitVector, ...] | None

    @property
    def registers(self) -> Registers | None:
        if self.register_bits is None:
            return None
        *agents, broker = bit_vectors(self.register_bits)
        return Registers(broker=broker, agents=tuple(agents))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Transcript):
            return NotImplemented
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            arrays = isinstance(mine, np.ndarray) or isinstance(theirs, np.ndarray)
            if not (np.array_equal(mine, theirs) if arrays else mine == theirs):
                return False
        return True


@dataclass
class RunOutcome:
    """Transcript plus the simulator-private adversary bookkeeping."""

    transcript: Transcript
    eve_record: EveRecord
    eve_rng: np.random.Generator

    def eve_guesses(self) -> tuple[BitVector, ...]:
        return eve_postprocess(self.eve_record, self.transcript, self.eve_rng)


def embed_secret(
    states: np.ndarray, index: np.ndarray, payload: BitVector, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Embed payload bit j into information tuple j of the stream (states, index).

    The stream may hold the information tuples of several runs, run after
    run, and every run gets the same payload. The broker's output qubit
    stays in the minus state while each of her tuple qubits controls a CNOT
    onto it, which kicks a phase of -1 onto the branch where tuple qubit j
    is 1 whenever payload bit j is 1. Returns the embedded stream in the
    same form, with each distinct state and its phase-flipped twin made
    once, as the tuples need them. The oracle module keeps an
    explicit-output-qubit variant for cross-checking.
    """
    runs, rest = divmod(index.size, payload.length)
    if rest:
        raise ValueError(f"need a multiple of {payload.length} tuples, got {index.size}")
    flips = np.tile(np.array(payload.bits(), dtype=np.intp), runs)
    pairs, index = np.unique(2 * index + flips, return_inverse=True)
    out = states[pairs >> 1]
    flipped = (pairs & 1) == 1
    out[flipped] = phase_flip_rows(out[flipped], n - 1)
    return out, index


def decrypt_and_measure(
    states: np.ndarray, index: np.ndarray, n: int, rngs: Sequence[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hadamard every protocol qubit of every tuple and measure.

    The stream (states, index) holds the embedded information tuples of one
    run per generator, run after run. Returns the registers as a
    (runs, n, m) bit array, party p's register of run t in row [t, p] with
    the broker's last, and the residual of every tuple as distinct states
    and an index (see statevec.sample_rows): the qubits above n, which only
    an adversary holds, or one amplitude per state when there are none.
    """
    runs = len(rngs)
    per_run = index.size // runs
    u = np.concatenate([r.random(per_run) for r in rngs])
    bits, residual, residual_index = sample_rows(states, index, range(n), True, u)
    return bits.reshape(runs, per_run, n).transpose(0, 2, 1), residual, residual_index


def run_validation(
    plan: DistributionPlan,
    states: np.ndarray,
    index: np.ndarray,
    noise_p: float,
    threshold_fraction: float,
    rngs: Sequence[np.random.Generator],
) -> tuple[ValidationReport, np.ndarray]:
    """Measure every transmitted decoy qubit and compare with the records.

    Agents measure their decoy qubits in the Hadamard basis and report the
    outcomes to the broker, which is the one stage where agent-to-broker
    traffic is part of the protocol. noise_p flips each reported outcome
    independently. The plan and the stream (states, index) in flight stack
    one or more runs, one generator each; returns the comparison of the
    stack and every run's reports as a (runs, n - 1, d) bit array, agent
    i's outcome of the j-th decoy in [t, i, j]. Decoy tuples are never read
    again, so their post-measurement states are not kept.
    """
    n, d, runs = plan.n, plan.d, plan.trials
    # per decoy in stream order: the measurement's sample draw, then one
    # noise draw per agent slot
    draws = np.concatenate([r.random((d, n)) for r in rngs])
    bits, _, _ = sample_rows(states, index[plan.is_decoy], range(n - 1), True, draws[:, 0])
    shape = (runs, d, n - 1)
    reported = (bits ^ (draws[:, 1:] < noise_p)).reshape(shape)
    report = ValidationReport(
        wrong=reported != plan.signs[:, : n - 1].reshape(shape),
        threshold=threshold_fraction * (d * (n - 1)),
    )
    return report, reported.transpose(0, 2, 1)


def exchange_routes(layout: SegmentLayout) -> tuple[tuple[Route, ...], np.ndarray, np.ndarray]:
    """The messages of the closing exchange, the same in every run that sends it.

    The broker sends agent t her segment t; every agent i sends agent t the
    segment t of their own register, for t != i, and keeps segment i
    private. Nothing flows towards the broker. The broker's messages come
    first, then agent 0's and up. Returns their routes, their payload ends
    as in a MessageTable, and where each payload entry sits in a run's
    flattened (n, m) registers.
    """
    n = layout.segments + 1
    # every (sender, receiver) pair but an agent's to itself, the broker's first
    senders = [BROKER, *range(n - 1)]
    routes = tuple(
        Route(STAGE_EXCHANGE, i, t, "broker_segment" if i == BROKER else "register_segment", t)
        for i in senders
        for t in range(n - 1)
        if i != t
    )
    ends = np.cumsum([layout.lengths[r.receiver] for r in routes])
    # in sending order, every sender's register but the segment it owns
    owner = np.repeat(np.arange(n - 1), layout.lengths)
    rows = np.array([n - 1, *range(n - 1)])[:, None] * layout.total + np.arange(layout.total)
    return routes, ends, rows[owner != np.array(senders)[:, None]]


def classical_exchange(
    registers: np.ndarray, exchange: tuple[tuple[Route, ...], np.ndarray, np.ndarray]
) -> tuple[tuple[Route, ...], np.ndarray, np.ndarray]:
    """Send every register segment to the agent it belongs to, in every run.

    Takes the (runs, n, m) registers of one or more runs (see
    decrypt_and_measure) and the exchange_routes of their layout, built
    once per scenario. Returns the routes, their payload ends and a
    (runs, bits) array with every run's payload entries in one row.
    """
    routes, ends, entries = exchange
    return routes, ends, registers.reshape(registers.shape[0], -1)[:, entries]


def recover_secret(registers: np.ndarray) -> BitVector:
    """The XOR of all n registers of a run: the payload, every agent's secret at once.

    Takes the (n, m) register bits of one run. Agent t folds segment t of
    every register, the broker's and the other agents' as the exchange
    delivers them and its own withheld one. XOR acts bitwise, so that fold
    is segment t of this one.
    """
    return bit_vectors(np.bitwise_xor.reduce(registers, axis=0)[None])[0]


def run_trials(scenario: Scenario, seeds: Iterable[int]) -> Iterator[list[RunOutcome]]:
    """Run the scenario once per seed, simulating several runs as one stack.

    A stack holds as many runs as keep its stack_entries within
    STACK_ENTRIES, and at least one; seeds is read one stack at a time, so
    it may be a lazy stream of any length. Yields the outcomes of each stack
    in seed order. Every run draws only from the two generators spawned
    from its own seed, in the order a lone run draws, so it matches
    execute_run at that seed. A lone run is a stack of one. Validation
    reports on the whole stack, and each run's verdict is read from its own
    slice of that report.
    """
    size = scenario.stack_runs(STACK_ENTRIES)
    payload, layout = concat_secrets(scenario.secrets)
    n, d = scenario.n, scenario.resolved_d
    # the same in every stack: the GHZ row, looked up in distribution at
    # call time like build_plan; the routes and payload ends of what every
    # run sends up to its verdict, the segment lengths, the decoy positions
    # and every agent's decoy outcomes; and the exchange a passing run sends
    ghz = distribution.prepare_ghz(n)
    opening = (
        (
            Route(STAGE_PREAMBLE, BROKER, ALL_AGENTS, "segment_lengths"),
            Route(STAGE_VALIDATION, BROKER, ALL_AGENTS, "decoy_positions"),
            *(Route(STAGE_VALIDATION, i, BROKER, "decoy_outcomes") for i in range(n - 1)),
        ),
        np.cumsum([n - 1, *[d] * n]),
    )
    exchange = exchange_routes(layout)
    seeds = iter(seeds)
    while stack := list(islice(seeds, size)):
        yield _run_stack(scenario, stack, payload, layout, ghz, opening, exchange)


def _run_stack(
    scenario: Scenario,
    seeds: Sequence[int],
    payload: BitVector,
    layout: SegmentLayout,
    ghz: np.ndarray,
    opening: tuple[tuple[Route, ...], np.ndarray],
    exchange: tuple[tuple[Route, ...], np.ndarray, np.ndarray],
) -> list[RunOutcome]:
    streams = [np.random.SeedSequence(seed).spawn(2) for seed in seeds]
    rngs = [np.random.default_rng(protocol) for protocol, _eve in streams]
    eve_rngs = [np.random.default_rng(eve) for _protocol, eve in streams]
    n, runs = scenario.n, len(seeds)
    m, d = payload.length, scenario.resolved_d

    plan = build_plan(m, d, n, rngs, ghz)
    states, index = plan.states, plan.index
    if scenario.eve.active:
        states, index, eve_record = attack_tuple(scenario.eve, states, index, eve_rngs)
    else:
        eve_record = EveRecord(strategy=scenario.eve)
    check_rows(states)

    validation, reported = run_validation(
        plan, states, index, scenario.noise_p, scenario.threshold_fraction, rngs
    )
    reports = [validation.run(t) for t in range(runs)]
    passed = np.array([not report.failed for report in reports])
    # decoys[t]: run t's decoy positions, broadcast and kept in its transcript
    decoys = plan.is_decoy.reshape(runs, m + d).nonzero()[1].reshape(runs, d)
    # every run's payloads up to its verdict, in the opening's row order
    lengths = np.broadcast_to(layout.lengths, (runs, n - 1))
    opened = np.concatenate((lengths, decoys, reported.reshape(runs, (n - 1) * d)), axis=1)
    if passed.any():
        # the information tuples of the runs that passed, run after run
        info = (~plan.is_decoy).reshape(runs, m + d) & passed[:, None]
        embedded, embedded_index = embed_secret(states, index[info.ravel()], payload, n)
        registers, residual, residual_index = decrypt_and_measure(
            embedded, embedded_index, n, [r for r, ok in zip(rngs, passed) if ok]
        )
        check_rows(residual)
        # every transcript that passed holds a view of this
        registers.flags.writeable = False
        routes, ends, exchanged = classical_exchange(registers, exchange)
        # a run that passed sends the opening, then the exchange: the same
        # routes and ends for every such run, and one row of payloads each
        sent = np.concatenate((opened[passed], exchanged), axis=1)
        routes = opening[0] + routes
        ends = np.concatenate((opening[1], opening[1][-1] + ends))

    # run t's place among the runs that passed
    completed = np.cumsum(passed) - 1
    outcomes = []
    for t, positions in enumerate(decoys.tolist()):
        record = eve_record.run_record(t, m + d)
        run_registers = recovered = None
        if passed[t]:
            p = completed[t]
            run_registers = registers[p]
            messages = MessageTable(routes, ends, sent[p])
            recovered = split(recover_secret(run_registers), layout)
            if scenario.eve.active:
                record.final_states = residual
                record.final_index = residual_index[p * m : (p + 1) * m]
        else:
            messages = MessageTable(*opening, opened[t])

        transcript = Transcript(
            layout=layout,
            stream_length=m + d,
            decoy_positions=tuple(positions),
            stages=COMPLETED_STAGES if passed[t] else ABORTED_STAGES,
            messages=messages,
            validation=reports[t],
            aborted=not passed[t],
            register_bits=run_registers,
            recovered=recovered,
        )
        outcomes.append(
            RunOutcome(transcript=transcript, eve_record=record, eve_rng=eve_rngs[t])
        )
    return outcomes


def execute_run(scenario: Scenario) -> RunOutcome:
    """Run the protocol once and return the transcript plus Eve's records."""
    return next(run_trials(scenario, [scenario.seed]))[0]


def run_protocol(scenario: Scenario) -> Transcript:
    return execute_run(scenario).transcript


def check_transcript_secrecy(transcript: Transcript) -> list[str]:
    """Structural secrecy checks on the classical traffic.

    Returns a description of every violation found: an agent sending their
    own withheld segment, or any message to the broker after validation.
    Reads the routes of the transcript's own messages.
    """
    violations: list[str] = []
    for r in transcript.messages.routes:
        if r.stage in POST_VALIDATION_STAGES and r.receiver == BROKER:
            violations.append(f"party {r.sender} sent {r.label!r} to the broker during {r.stage}")
        # segment indices are agent indices, so only an agent sender can match
        if r.sender == r.segment_index:
            violations.append(f"agent {r.sender} transmitted their own segment {r.sender}")
    return violations
