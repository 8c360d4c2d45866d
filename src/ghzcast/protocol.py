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

The transcript is typed data: its traffic is a MessageTable of routes and
payload entries, so nothing parses it and only the CLI renders text.
Parties are ints: agent i is i, and the broker and the broadcast address
are the negative sentinels BROKER and ALL_AGENTS. Payloads are data, not
text: decoy outcomes and register segments are bits, decoy positions and
segment lengths are ints. The registers are one bit array per run, read as
bit vectors only on request.

run_trials simulates many runs of one scenario, each from its own seed, by
stacking their tuple streams: every stage makes one kernel call per stack,
and each run still draws from its own generators in the order a lone run
would, so a stacked run is the run run_protocol makes at the same seed. A
run's two generators, the protocol's and Eve's, are the PCG64 generators of
the two children of numpy's SeedSequence(seed).spawn(2). They are derived in
one pass per stack without building a SeedSequence: numpy's seed mixing is
restated as array arithmetic over the stack's seeds, the pool the two
children share mixed once per seed (see _spawned_words). Only
distribution.build_plan reads the protocol generator; later stages take
their uniforms from the plan. A stack's stream is its few distinct tuple
states plus the index of each tuple's (see distribution), so every stage
simulates each distinct state once however many runs share it: the GHZ row,
or after embedding it and its phase-flipped twin, and the decoy sign
patterns of an attacked stream. Tuples that nothing touches are never
simulated. An agent measures an untouched decoy in the basis the broker
prepared it in, so its outcome is the broker's sign record, and validation
reads it from the plan (see run_validation). An untouched information
tuple is one of the two GHZ-derived rows, so its decryption outcome is
drawn from their outcome law, which run_trials computes once per
experiment (see decrypt_honest). An honest stack therefore builds,
rotates and checks no state at all. Where no later stage reads the
measured state, as for an attacked decoy at validation, the outcome is
one statevec.pick_from from the outcome law of the distinct states. A
stack holds as many runs as fit a fixed bound on their arrays, counted
per run (see Scenario.run_entries), so a stack of honest runs holds tens
of them. The classical layer works per stack too: the decoy reports, the
verdicts, the registers, the exchanged segments and Eve's guesses of all
runs are arrays, held by the RunStack that run_trials yields, and
statistics are counted from them. Routes are not: every run
with the same verdict sends the same messages, which run_routes lists once,
and a stack holds only their payloads. A lone run is a stack of one, from
whose arrays run_protocol builds its Transcript. Measured decoy tuples are
not kept, and decryption keeps of each information tuple only the qubits an
adversary holds, the part her late measurement needs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .adversary import (
    MEASURE_RESEND,
    RANDOM_BASIS,
    EveRecord,
    EveStrategy,
    attack_tuple,
    eve_postprocess,
)
from .bitvec import BitVector, SegmentLayout, bit_vectors, concat_secrets, split
from .distribution import DistributionPlan, build_plan
from .statevec import MAX_QUBITS, check_rows, ghz_row, outcome_law, phase_flip_rows, pick_from
from .statevec import sample_rows

__all__ = [
    "BROKER",
    "ALL_AGENTS",
    "STAGE_PREAMBLE",
    "STAGE_DISTRIBUTION",
    "STAGE_VALIDATION",
    "STAGE_EMBEDDING",
    "STAGE_DECRYPTION",
    "STAGE_EXCHANGE",
    "STAGE_RECOVERY",
    "Route",
    "MessageTable",
    "Scenario",
    "ValidationReport",
    "Registers",
    "Transcript",
    "RunStack",
    "embed_secret",
    "decrypt_and_measure",
    "decrypt_honest",
    "run_validation",
    "run_routes",
    "exchange_entries",
    "classical_exchange",
    "recover_secret",
    "run_trials",
    "run_protocol",
    "check_route_secrecy",
]

BROKER = -1
ALL_AGENTS = -2

STAGE_PREAMBLE = "preamble"
STAGE_DISTRIBUTION = "distribution"
STAGE_VALIDATION = "validation"
STAGE_EMBEDDING = "embedding"
STAGE_DECRYPTION = "decryption"
STAGE_EXCHANGE = "exchange"
STAGE_RECOVERY = "recovery"

# Scenarios whose whole tuple stream, one state per tuple, would need more
# than this many amplitudes are refused (2**25 float64 amplitudes are
# 256 MiB).
MAX_STREAM_AMPLITUDES = 1 << 25
# run_trials simulates together as many runs as fit, Scenario.run_entries
# each, in this many array entries (2 MiB of float64), and at least one:
# enough tuples to spread per-call overhead over tens of runs, few enough
# that a stack and the temporaries of a measurement stay small for any trial
# count.
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
    def run_entries(self) -> int:
        """Array entries one run adds to a stack; run_trials sizes stacks by it.

        Per tuple: its index, draws, bits and reports, a few entries per
        qubit, and the residual of the qubits Eve keeps. Per run: a fixed
        512 entries (4 KiB), which hold its two generators and their state
        words, about 1.6 KB; no seed sequence or transcript is built. A stage
        simulates each distinct tuple state once. Information tuples share
        the GHZ row, after embedding it and its phase-flipped twin, and an
        attacked decoy is one of 2**n sign patterns; measure-resend splits a
        state once per mask of Eve's bases and outcome of hers, and the
        other attacks map states one to one. Where an attacked stream can
        reach more distinct states than one run has tuples, they grow with
        the runs, so every tuple is charged a state. Otherwise they are
        shared by the stack and bounded by the scenario: at most one run's
        dense stream, which MAX_STREAM_AMPLITUDES admits for a stack of
        one. An honest stack builds no state: its two rows and their outcome
        law are built once per experiment (see run_trials). Its tuples are
        still charged the residual entry above, which holds honest stacks
        at the sizes the benchmark and the tests measure.
        """
        q = self.tuple_qubits
        per_tuple = 4 * q + (1 << (q - self.n))
        if self.eve.active:
            branches = 1
            if self.eve.tag == MEASURE_RESEND:
                masks = 1 << self.eve.k if self.eve.basis_policy == RANDOM_BASIS else 1
                branches = masks << self.eve.k
            if (1 + (1 << self.n)) * branches > self.stream_length:
                per_tuple += 1 << q
        return self.stream_length * per_tuple + 512


def _fields_equal(a: object, b: object) -> bool:
    """Whether two records of one dataclass hold equal fields, arrays by
    value and shape (np.array_equal) and everything else by ==."""
    for f in fields(a):
        mine, theirs = getattr(a, f.name), getattr(b, f.name)
        arrays = isinstance(mine, np.ndarray) or isinstance(theirs, np.ndarray)
        if not (np.array_equal(mine, theirs) if arrays else mine == theirs):
            return False
    return True


class Route(NamedTuple):
    """A message's routing: everything but its payload."""

    stage: str
    sender: int
    receiver: int
    label: str
    segment_index: int | None = None


@dataclass(frozen=True, eq=False)
class MessageTable:
    """Messages in sending order as columns.

    routes holds one Route per message. Row i's payload is payload[ends[i
    - 1]:ends[i]], from 0 for row 0: the bits of a bit vector, bit 0
    first, or the ints of a segment length or decoy position list.
    Iterating yields every row as its route and payload entries, in order.
    The arrays may be shared with the tables of other runs, so a table
    makes them read-only.
    """

    routes: tuple[Route, ...]
    ends: np.ndarray
    payload: np.ndarray

    def __post_init__(self) -> None:
        self.ends.flags.writeable = False
        self.payload.flags.writeable = False

    def __iter__(self) -> Iterator[tuple[Route, np.ndarray]]:
        ends = self.ends.tolist()
        for r, start, end in zip(self.routes, [0, *ends], ends):
            yield r, self.payload[start:end]

    def __eq__(self, other: object) -> bool:
        return _fields_equal(self, other) if isinstance(other, MessageTable) else NotImplemented


@dataclass(eq=False)
class ValidationReport:
    """Decoy comparison of a stack of runs, as run_validation returns it.

    wrong is a (runs, d, n - 1) bit array: per run, one row per decoy in
    stream order and one column per agent slot, set where the agent's report
    differs from the broker's record; a lone run's transcript holds the
    report of its stack of one. decoy_checks and errors total the report.
    The threshold is threshold_fraction times one run's transmitted decoy
    qubits, d * (n - 1). A run fails exactly when its errors reach the
    threshold, unless it has no checks; passed holds that verdict of every
    run, and verdict reads it of a stack of one.
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
    def verdict(self) -> str:
        if len(self.wrong) != 1:
            raise ValueError("a stack of runs has no single verdict; read every run's from passed")
        return "pass" if self.passed[0] else "fail"

    @property
    def passed(self) -> np.ndarray:
        """The verdict of every run of a stack, as a (runs,) mask of the runs
        that passed."""
        _runs, d, slots = self.wrong.shape
        return (d * slots == 0) | (np.count_nonzero(self.wrong, axis=(1, 2)) < self.threshold)

    def __eq__(self, other: object) -> bool:
        return _fields_equal(self, other) if isinstance(other, ValidationReport) else NotImplemented


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
        return _fields_equal(self, other) if isinstance(other, Transcript) else NotImplemented


@dataclass(eq=False)
class RunStack:
    """The outcome of a stack of runs as arrays, as run_trials yields it.

    validation compares every run's decoys, (runs, d, n - 1), and passed
    holds every run's verdict. reported holds the decoy outcomes the agents
    sent, (runs, n - 1, d), and is_decoy marks every run's decoy positions,
    (runs, m + d). The runs that passed own, in order, one row each of
    registers, their measured (P, n, m) registers, and of exchange, the
    (P, bits) payload entries they sent in the closing exchange (see
    classical_exchange). A stack holds no routes: every run sends those
    that run_routes lists, the exchange's only if it passed. eve is Eve's
    record of the stack, and guesses her (runs, m) guess of every run's
    payload (see eve_postprocess), drawn once when the stack is made.
    """

    layout: SegmentLayout
    validation: ValidationReport
    reported: np.ndarray
    is_decoy: np.ndarray
    passed: np.ndarray
    registers: np.ndarray
    exchange: np.ndarray
    eve: EveRecord
    guesses: np.ndarray


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
    states: np.ndarray, index: np.ndarray, n: int, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hadamard every protocol qubit of every tuple and measure.

    The stream (states, index) holds the embedded information tuples of
    one run per row of u, run after run, and u the plan's (runs, m)
    decryption draws, one per tuple. Returns the registers as a (runs, n, m)
    bit array, party p's register of run t in row [t, p] with the broker's
    last, and the residual of every tuple as distinct states and an index
    (see statevec.sample_rows): the qubits above n, which only an adversary
    holds, or one amplitude per state when there are none.
    """
    bits, residual, residual_index = sample_rows(states, index, range(n), True, u.ravel())
    return bits.reshape(*u.shape, n).transpose(0, 2, 1), residual, residual_index


def decrypt_honest(law: np.ndarray, payload: BitVector, u: np.ndarray) -> np.ndarray:
    """The registers of decrypt_and_measure for information tuples nothing touched.

    Such a tuple is the GHZ row, after embedding payload bit b its
    phase-flipped twin when b is 1, so its outcome is drawn from row b of
    law, the two rows' Hadamard-basis outcome law (see run_trials). u holds
    the plan's (runs, m) decryption draws. The pick is the one
    decrypt_and_measure makes on the embedded states, from the same
    floats, so the registers are the same bits.
    """
    flips = np.tile(np.array(payload.bits(), dtype=np.intp), len(u))
    return pick_from(law, flips, u.ravel()).reshape(*u.shape, -1).transpose(0, 2, 1)


def run_validation(
    plan: DistributionPlan,
    decoys: tuple[np.ndarray, np.ndarray] | None,
    noise_p: float,
    threshold_fraction: float,
) -> tuple[ValidationReport, np.ndarray]:
    """Measure every transmitted decoy qubit and compare with the records.

    Agents measure their decoy qubits in the Hadamard basis and report the
    outcomes to the broker, which is the one stage where agent-to-broker
    traffic is part of the protocol. noise_p flips each reported outcome
    independently. The plan stacks one or more runs and holds their
    uniforms (see distribution.build_plan). decoys is the stream (states,
    index) of the decoy tuples in flight, in stream order, or None when
    nothing touched them. An untouched decoy qubit needs no sample: it is
    measured in the basis it was prepared in, so its outcome is
    certain and is the broker's sign record: every Hadamard pass takes a
    product row's amplitude pairs to 0 or to one shared value, which leaves
    the recorded outcome all the weight. Returns the comparison of the
    stack and every run's reports as a (runs, n - 1, d) bit array, agent
    i's outcome of the j-th decoy in [t, i, j]. Decoy tuples are never read
    again, so their post-measurement states are not kept.
    """
    n, d, runs = plan.n, plan.d, len(plan.draws)
    # per decoy in stream order: the measurement's sample, then one noise
    # draw per agent slot
    draws = plan.draws[:, : d * n].reshape(runs * d, n)
    if decoys is None:
        bits = plan.signs[:, : n - 1]
    else:
        states, index = decoys
        bits = pick_from(outcome_law(states, range(n - 1), True), index, draws[:, 0])
    shape = (runs, d, n - 1)
    reported = (bits ^ (draws[:, 1:] < noise_p)).reshape(shape)
    report = ValidationReport(
        wrong=reported != plan.signs[:, : n - 1].reshape(shape),
        threshold=threshold_fraction * (d * (n - 1)),
    )
    return report, reported.transpose(0, 2, 1)


def run_routes(layout: SegmentLayout, d: int) -> tuple[tuple[Route, ...], np.ndarray, int]:
    """The messages of a run that passes, the same in every such run.

    In sending order: the opening, which every run sends up to its verdict,
    is the broker's segment lengths and decoy positions and every agent's
    decoy outcomes. The closing exchange follows: the broker sends agent t
    her segment t; every agent i sends agent t the segment t of their own
    register, for t != i, and keeps segment i private. Nothing flows
    towards the broker. The broker's messages come first, then agent 0's
    and up. Returns the routes, their payload ends as in a MessageTable,
    and how many of them the opening sends.
    """
    n = layout.segments + 1
    opening = (
        Route(STAGE_PREAMBLE, BROKER, ALL_AGENTS, "segment_lengths"),
        Route(STAGE_VALIDATION, BROKER, ALL_AGENTS, "decoy_positions"),
        *(Route(STAGE_VALIDATION, i, BROKER, "decoy_outcomes") for i in range(n - 1)),
    )
    exchange = tuple(
        Route(STAGE_EXCHANGE, i, t, "broker_segment" if i == BROKER else "register_segment", t)
        for i in (BROKER, *range(n - 1))
        for t in range(n - 1)
        if i != t
    )
    lengths = [n - 1, *[d] * n, *(layout.lengths[r.receiver] for r in exchange)]
    return opening + exchange, np.cumsum(lengths), len(opening)


def exchange_entries(layout: SegmentLayout) -> np.ndarray:
    """Where each payload entry of the closing exchange sits in a run's
    flattened (n, m) registers, in the sending order of run_routes: the
    broker's register, then agent 0's and up, each but the segment its
    sender owns."""
    n, m = layout.segments + 1, layout.total
    owner = np.repeat(np.arange(n - 1), layout.lengths)
    # register rows in sending order; the broker's, row n - 1, owns no segment
    rows = np.array([n - 1, *range(n - 1)])[:, None]
    return (rows * m + np.arange(m))[owner != rows]


def classical_exchange(registers: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Send every register segment to the agent it belongs to, in every run.

    Takes the (runs, n, m) registers of one or more runs (see
    decrypt_and_measure) and the exchange_entries of their layout, built
    once per scenario. Returns the payload as a (runs, bits) array, every
    run's payload entries in one row.
    """
    return registers.reshape(registers.shape[0], -1)[:, entries]


def recover_secret(registers: np.ndarray) -> BitVector:
    """The XOR of all n registers of a run: the payload, every agent's secret at once.

    Takes the (n, m) register bits of one run. Agent t folds segment t of
    every register, the broker's and the other agents' as the exchange
    delivers them and its own withheld one. XOR acts bitwise, so that fold
    is segment t of this one.
    """
    return bit_vectors(np.bitwise_xor.reduce(registers, axis=0)[None])[0]


def run_trials(scenario: Scenario, seeds: Iterable[int]) -> Iterator[RunStack]:
    """Run the scenario once per seed, simulating several runs as one stack.

    A stack holds STACK_ENTRIES // scenario.run_entries runs, and at least
    one; seeds is read one stack at a time, so it may be a lazy stream of
    any length; a seed is any int >= 0. Yields each stack's RunStack in
    seed order, whose arrays hold the outcome of all its runs. Every run
    draws only from the two generators of its own seed, in the order a lone
    run draws, so it matches run_protocol at that seed. They are the
    generators numpy seeds from SeedSequence(seed).spawn(2), protocol first
    and Eve's second, derived for the whole stack in one pass (see
    _spawned_words). A lone run is a stack of one.
    Validation reports on the whole stack, and passed reads every run's
    verdict from it. What every stack shares is built here, once per call:
    where the exchange's payload entries sit in a run's registers and,
    without an adversary, the outcome law that decrypt_honest draws from.
    """
    n, size = scenario.n, max(1, STACK_ENTRIES // scenario.run_entries)
    payload, layout = concat_secrets(scenario.secrets)
    entries = exchange_entries(layout)
    law = None
    if not scenario.eve.active:
        # the Hadamard-basis law of the GHZ row and its phase-flipped twin:
        # row b decrypts an information tuple that carries payload bit b
        ghz = ghz_row(n)
        law = outcome_law(np.concatenate((ghz, phase_flip_rows(ghz, n - 1))), range(n), True)
    seeds = iter(seeds)
    while stack := list(islice(seeds, size)):
        yield _run_stack(scenario, stack, payload, layout, entries, law)


# numpy's SeedSequence mixes with hashes whose constants run through fixed
# sequences: the k-th hash of the pool's mixing uses the k-th and (k+1)-th
# powers of MULT_A times INIT_A, and generate_state's j-th output word the
# j-th and (j+1)-th of MULT_B times INIT_B, all mod 2**32
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    return np.array([init * pow(mult, k, 1 << 32) & 0xFFFFFFFF for k in range(count)], np.uint32)


# the hashes of a pool of four words plus a spawn key: 4 to fill the pool,
# 12 to cross-mix it and 4 to mix in the key; and of 8 uint32 output words
_POOL_HASHES = _hash_constants(_INIT_A, _MULT_A, 21)
_STATE_HASHES = _hash_constants(_INIT_B, _MULT_B, 9)


def _hashed(values: np.ndarray, hashes: np.ndarray, k: int, count: int) -> np.ndarray:
    """The k-th to (k + count - 1)-th hashes of SeedSequence's mixing,
    applied along the last axis of values, which broadcasts to count."""
    x = (values ^ hashes[k : k + count]) * hashes[k + 1 : k + count + 1]
    return x ^ (x >> 16)


def _mixed(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> 16)


def _spawned_words(seeds: Sequence[int]) -> np.ndarray:
    """SeedSequence(seed).spawn(2)[i].generate_state(4, np.uint64) for every
    seed, as a (2, runs, 4) array, child i's of run t in [i, t].

    Child i is SeedSequence(seed, spawn_key=(i,)), so no parent is built. Its
    entropy is the seed's uint32 words, low first and zero-padded to the pool
    size of 4, then the key word: both children mix the same pool up to the
    key, so it is mixed once per seed, over all seeds of a word count at
    once. The key's hashes, 0 or 1 under known constants, are constants, and
    so are generate_state's. Words past the fourth, from seeds of 2**128 up,
    are mixed into the pool before the key, as numpy mixes them.
    """
    seeds = [operator.index(seed) for seed in seeds]
    words = np.empty((2, len(seeds), 4), np.uint64)
    sizes = [max(4, -(-seed.bit_length() // 32)) for seed in seeds]
    for size in set(sizes):
        rows = [t for t, s in enumerate(sizes) if s == size]
        entropy = b"".join(seeds[t].to_bytes(4 * size, "little") for t in rows)
        entropy = np.frombuffer(entropy, "<u4").reshape(len(rows), size)
        hashes = _POOL_HASHES
        if size > 4:
            hashes = _hash_constants(_INIT_A, _MULT_A, len(_POOL_HASHES) + 4 * (size - 4))
        pool = _hashed(entropy[:, :4], hashes, 0, 4)
        k = 4
        # each word mixes into the three others, the latest ones read
        for src in range(4):
            dst = [i for i in range(4) if i != src]
            pool[:, dst] = _mixed(pool[:, dst], _hashed(pool[:, src, None], hashes, k, 3))
            k += 3
        # then every later word, the key last, into all four
        for src in range(4, size):
            pool = _mixed(pool, _hashed(entropy[:, src, None], hashes, k, 4))
            k += 4
        keys = _hashed(np.arange(2, dtype=np.uint32)[:, None], hashes, k, 4)
        pools = _mixed(pool, keys[:, None])
        # generate_state reads the pool twice round, then pairs the 32-bit
        # words little-endian into 64-bit ones
        state = _hashed(np.concatenate((pools, pools), axis=-1), _STATE_HASHES, 0, 8)
        words[:, rows] = state.astype("<u4").view("<u8")
    return words


class _SpawnedState(ISeedSequence):
    """A spawned child's state words, in place of its SeedSequence: all a
    PCG64 reads of one is generate_state(4, np.uint64)."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def _run_stack(
    scenario: Scenario,
    seeds: Sequence[int],
    payload: BitVector,
    layout: SegmentLayout,
    entries: np.ndarray,
    law: np.ndarray | None,
) -> RunStack:
    rngs, eve_rngs = (
        [np.random.Generator(np.random.PCG64(_SpawnedState(w))) for w in child]
        for child in _spawned_words(seeds)
    )
    n, runs = scenario.n, len(seeds)
    m, d = payload.length, scenario.resolved_d

    plan = build_plan(m, d, n, rngs)
    if scenario.eve.active:
        states, index, eve_record = attack_tuple(scenario.eve, *plan.stream(), eve_rngs)
        check_rows(states)
        decoys = states, index[plan.is_decoy]
        index = index[~plan.is_decoy]
    else:
        # nothing touches the decoys, so validation reads their outcomes off
        # the plan
        decoys, eve_record = None, EveRecord(strategy=scenario.eve)

    validation, reported = run_validation(
        plan, decoys, scenario.noise_p, scenario.threshold_fraction
    )
    passed = validation.passed
    is_decoy = plan.is_decoy.reshape(runs, m + d)
    registers = np.zeros((0, n, m), dtype=np.intp)
    sent = np.zeros((0, entries.size), dtype=np.intp)
    if passed.any():
        # the decryption draws of the runs that passed, run after run
        u = plan.draws[passed, d * n :]
        if scenario.eve.active:
            embedded, embedded_index = embed_secret(states, index[np.repeat(passed, m)], payload, n)
            registers, residual, residual_index = decrypt_and_measure(
                embedded, embedded_index, n, u
            )
            check_rows(residual)
            eve_record.final_states, eve_record.final_index = residual, residual_index
        else:
            registers = decrypt_honest(law, payload, u)
        sent = classical_exchange(registers, entries)
    # a lone run's transcript holds a view of this, read-only like its messages
    registers.flags.writeable = False
    return RunStack(
        layout=layout,
        validation=validation,
        reported=reported,
        is_decoy=is_decoy,
        passed=passed,
        registers=registers,
        exchange=sent,
        eve=eve_record,
        guesses=eve_postprocess(eve_record, layout, is_decoy, passed, sent, entries, eve_rngs),
    )


def run_protocol(scenario: Scenario) -> Transcript:
    """Run the protocol once at the scenario's seed and return its transcript,
    built from the arrays of the run's stack of one. Eve's record and
    guesses stay on that RunStack, which run_trials yields for [seed]."""
    stack = next(run_trials(scenario, [scenario.seed]))
    layout, aborted = stack.layout, not stack.passed[0]
    positions = np.flatnonzero(stack.is_decoy[0])
    # the opening's payloads: segment lengths, decoy positions, decoy outcomes
    sent = np.concatenate((layout.lengths, positions, stack.reported[0].ravel()))
    routes, ends, opened = run_routes(layout, positions.size)
    registers = recovered = None
    if aborted:
        routes, ends = routes[:opened], ends[:opened]
    else:
        sent = np.concatenate((sent, stack.exchange[0]))
        registers = stack.registers[0]
        recovered = split(recover_secret(registers), layout)
    return Transcript(
        layout=layout,
        stream_length=stack.is_decoy.shape[1],
        decoy_positions=tuple(positions.tolist()),
        stages=ABORTED_STAGES if aborted else COMPLETED_STAGES,
        messages=MessageTable(routes, ends, sent),
        validation=stack.validation,
        aborted=aborted,
        register_bits=registers,
        recovered=recovered,
    )


def check_route_secrecy(routes: Sequence[Route]) -> list[str]:
    """Returns a description of every violation among the routes of a run's
    messages: an agent sending their own withheld segment, or any message to
    the broker after validation."""
    violations: list[str] = []
    for r in routes:
        if r.stage in POST_VALIDATION_STAGES and r.receiver == BROKER:
            violations.append(f"party {r.sender} sent {r.label!r} to the broker during {r.stage}")
        # segment indices are agent indices, so only an agent sender can match
        if r.sender == r.segment_index:
            violations.append(f"agent {r.sender} transmitted their own segment {r.sender}")
    return violations
