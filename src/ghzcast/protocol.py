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
stacking their tuple streams into one batch: every stage makes one kernel
call per stack, and each run still draws from its own generators in the
order a lone run would, so a stacked run is the run execute_run makes at the
same seed. The classical layer works per stack too: the decoy reports, the
registers and the exchanged segments of all runs are arrays, which each
run's transcript slices. Measured decoy tuples are not kept, and decryption
keeps of each information tuple only the qubits an adversary holds, the
part her late measurement needs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .adversary import EveRecord, EveStrategy, attack_tuple, eve_postprocess
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
    "classical_exchange",
    "recover_secret",
    "run_trials",
    "execute_run",
    "run_protocol",
    "check_transcript_secrecy",
]

# A run's whole tuple stream is one batch of amplitudes; scenarios whose
# stream would need more than this many are refused (2**25 float64
# amplitudes are 256 MiB).
MAX_STREAM_AMPLITUDES = 1 << 25
# run_trials simulates as many runs together as fit in this many amplitudes,
# at least one: enough rows to spread per-call overhead, few enough that the
# stack and the temporaries of a measurement stay in cache.
STACK_AMPLITUDES = 1 << 15

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
    def stream_amplitudes(self) -> int:
        """Amplitudes of one run's whole tuple stream."""
        return (self.payload_length + self.resolved_d) << self.tuple_qubits


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


def embed_secret(batch: np.ndarray, payload: BitVector, n: int) -> np.ndarray:
    """Embed payload bit j into information tuple j, row j of the batch.

    A batch may hold the information tuples of several runs, run after run,
    and every run gets the same payload. The broker's output qubit stays in
    the minus state while each of her tuple qubits controls a CNOT onto it,
    which kicks a phase of -1 onto the branch where tuple qubit j is 1
    whenever payload bit j is 1. The oracle module keeps an
    explicit-output-qubit variant for cross-checking.
    """
    runs, rest = divmod(batch.shape[0], payload.length)
    if rest:
        raise ValueError(f"need a multiple of {payload.length} tuples, got {batch.shape[0]}")
    flips = np.tile(np.array(payload.bits(), dtype=bool), runs)
    out = batch.copy()
    out[flips] = phase_flip_rows(batch[flips], n - 1)
    return out


def decrypt_and_measure(
    batch: np.ndarray, n: int, rngs: Sequence[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray]:
    """Hadamard every protocol qubit of every tuple and measure.

    The batch holds the embedded information tuples of one run per
    generator, run after run. Returns the registers as a (runs, n, m) bit
    array, party p's register of run t in row [t, p] with the broker's
    last, and the residual of every tuple: the qubits above n, which only
    an adversary holds, or one amplitude per tuple when there are none.
    """
    runs = len(rngs)
    per_run = batch.shape[0] // runs
    u = np.concatenate([r.random(per_run) for r in rngs])
    bits, residual = sample_rows(batch, range(n), True, u)
    return bits.reshape(runs, per_run, n).transpose(0, 2, 1), residual


def run_validation(
    plan: DistributionPlan,
    batch: np.ndarray,
    noise_p: float,
    threshold_fraction: float,
    rngs: Sequence[np.random.Generator],
) -> tuple[ValidationReport, np.ndarray]:
    """Measure every transmitted decoy qubit and compare with the records.

    Agents measure their decoy qubits in the Hadamard basis and report the
    outcomes to the broker, which is the one stage where agent-to-broker
    traffic is part of the protocol. noise_p flips each reported outcome
    independently. The plan and batch stack one or more runs, one generator
    each; returns the comparison of the stack and every run's reports as a
    (runs, n - 1, d) bit array, agent i's outcome of the j-th decoy in
    [t, i, j]. Decoy tuples are never read again, so their post-measurement
    states are not kept.
    """
    n, d, runs = plan.n, plan.d, plan.trials
    # per decoy in stream order: the measurement's sample draw, then one
    # noise draw per agent slot
    draws = np.concatenate([r.random((d, n)) for r in rngs])
    bits, _ = sample_rows(batch[plan.is_decoy], range(n - 1), True, draws[:, 0])
    shape = (runs, d, n - 1)
    reported = (bits ^ (draws[:, 1:] < noise_p)).reshape(shape)
    report = ValidationReport(
        wrong=reported != plan.signs[:, : n - 1].reshape(shape),
        threshold=threshold_fraction * (d * (n - 1)),
    )
    return report, reported.transpose(0, 2, 1)


def classical_exchange(
    registers: np.ndarray, layout: SegmentLayout
) -> tuple[tuple[Route, ...], np.ndarray, np.ndarray]:
    """Send every register segment to the agent it belongs to, in every run.

    The broker sends agent t her segment t; every agent i sends agent t the
    segment t of their own register, for t != i, and keeps segment i private.
    Nothing flows towards the broker. Takes the (runs, n, m) registers of
    one or more runs (see decrypt_and_measure). Every run routes the same
    messages, the broker's first, then agent 0's and up; returns their
    routes, their payload ends as in a MessageTable, and a (runs, bits)
    array with every run's payload entries in one row.
    """
    n = registers.shape[1]
    # every (sender, receiver) pair but an agent's to itself, the broker's first
    senders = [BROKER, *range(n - 1)]
    routes = tuple(
        Route(STAGE_EXCHANGE, i, t, "broker_segment" if i == BROKER else "register_segment", t)
        for i in senders
        for t in range(n - 1)
        if i != t
    )
    ends = np.cumsum([layout.lengths[r.receiver] for r in routes])
    # in row order, every sender's register but the segment it owns
    owner = np.repeat(np.arange(n - 1), layout.lengths)
    payload = registers[:, [n - 1, *range(n - 1)]][:, owner != np.array(senders)[:, None]]
    return routes, ends, payload


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

    A stack holds as many runs as fit in STACK_AMPLITUDES amplitudes, and at
    least one; seeds is read one stack at a time, so it may be a lazy
    stream of any length. Yields the outcomes of each stack in seed order.
    Every run draws only from the two generators spawned from its own seed,
    in the order a lone run draws, so it matches execute_run at that seed.
    A lone run is a stack of one. Validation reports on the whole stack,
    and each run's verdict is read from its own slice of that report.
    """
    size = max(1, STACK_AMPLITUDES // scenario.stream_amplitudes)
    payload, layout = concat_secrets(scenario.secrets)
    n, d = scenario.n, scenario.resolved_d
    # the same in every stack: the GHZ row, looked up in distribution at
    # call time like build_plan, and the routes and payload ends of what
    # every run sends up to its verdict, the segment lengths, the decoy
    # positions and every agent's decoy outcomes
    ghz = distribution.prepare_ghz(n)
    opening = (
        (
            Route(STAGE_PREAMBLE, BROKER, ALL_AGENTS, "segment_lengths"),
            Route(STAGE_VALIDATION, BROKER, ALL_AGENTS, "decoy_positions"),
            *(Route(STAGE_VALIDATION, i, BROKER, "decoy_outcomes") for i in range(n - 1)),
        ),
        np.cumsum([n - 1, *[d] * n]),
    )
    seeds = iter(seeds)
    while stack := list(islice(seeds, size)):
        yield _run_stack(scenario, stack, payload, layout, ghz, opening)


def _run_stack(
    scenario: Scenario,
    seeds: Sequence[int],
    payload: BitVector,
    layout: SegmentLayout,
    ghz: np.ndarray,
    opening: tuple[tuple[Route, ...], np.ndarray],
) -> list[RunOutcome]:
    streams = [np.random.SeedSequence(seed).spawn(2) for seed in seeds]
    rngs = [np.random.default_rng(protocol) for protocol, _eve in streams]
    eve_rngs = [np.random.default_rng(eve) for _protocol, eve in streams]
    n, runs = scenario.n, len(seeds)
    m, d = payload.length, scenario.resolved_d

    plan = build_plan(m, d, n, rngs, ghz)
    batch = plan.states
    if scenario.eve.active:
        batch, eve_record = attack_tuple(scenario.eve, batch, eve_rngs)
    else:
        eve_record = EveRecord(strategy=scenario.eve)
    check_rows(batch)

    validation, reported = run_validation(
        plan, batch, scenario.noise_p, scenario.threshold_fraction, rngs
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
        embedded = embed_secret(batch[info.ravel()], payload, n)
        registers, residual = decrypt_and_measure(
            embedded, n, [r for r, ok in zip(rngs, passed) if ok]
        )
        check_rows(residual)
        # every transcript that passed holds a view of this
        registers.flags.writeable = False
        routes, ends, exchanged = classical_exchange(registers, layout)
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
                record.final_states = residual[p * m : (p + 1) * m]
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
