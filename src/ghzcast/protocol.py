"""End-to-end protocol runs: distribute, validate, embed, decrypt, exchange.

One run moves through fixed stages. The broker first sends every agent their
qubit streams with decoys interleaved (distribution), then announces decoy
positions and compares the agents' Hadamard-basis outcomes against her
preparation records (validation). Only if validation passes does she embed
the payload through phase kickback on her own qubits, after which every
party decrypts with Hadamards and measures. The closing classical exchange
sends each register segment to the one agent whose secret it protects, and
never routes agent data back to the broker.

Ordering is load bearing: an abort happens strictly before the embedding
stage, so an aborted run contains no secret-dependent quantum operation at
all.

The transcript is typed data: its messages name parties by index (see
messages) and carry bit vectors and int tuples, so the secrecy check and
the adversary read them without parsing; only the CLI renders text.

run_trials simulates many runs of one scenario, each from its own seed, by
stacking their tuple streams into one batch: every stage makes one kernel
call per stack, and each run still draws from its own generators in the
order a lone run would, so a stacked run is the run execute_run makes at the
same seed. Measured decoy tuples are not kept, and decryption keeps of each
information tuple only the qubits an adversary holds, the part her late
measurement needs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Iterator, Mapping, Sequence

import numpy as np

from .adversary import EveRecord, EveStrategy, attack_tuple, eve_postprocess
from .bitvec import BitVector, SegmentLayout, bit_vectors, concat_secrets, split, xor_all
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
    ClassicalMessage,
)
from .statevec import HADAMARD, MAX_QUBITS, check_rows, phase_flip_rows, sample_rows

__all__ = [
    "Scenario",
    "ClassicalMessage",
    "ValidationReport",
    "ValidationBatch",
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
# stream would need more than this many are refused (2**25 complex
# amplitudes are 512 MiB).
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
    """Outcome of one run's decoy comparison.

    expected, reported and wrong are (d, n - 1) bit arrays: one row per
    decoy in stream order, one column per agent slot. decoy_checks counts
    every transmitted decoy qubit, d * (n - 1); the threshold is
    threshold_fraction times that count and the verdict is fail exactly when
    errors reach it.
    """

    decoy_checks: int
    errors: int
    threshold: float
    verdict: str
    expected: np.ndarray
    reported: np.ndarray
    wrong: np.ndarray

    @property
    def failed(self) -> bool:
        return self.verdict == "fail"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ValidationReport):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )


@dataclass
class ValidationBatch:
    """Decoy comparison of a stack of runs, as run_validation returns it.

    expected, reported and wrong are (trials, d, n - 1) bit arrays; the
    threshold applies to each run on its own. decoy_checks and errors total
    the whole stack.
    """

    expected: np.ndarray
    reported: np.ndarray
    wrong: np.ndarray
    threshold: float

    @property
    def decoy_checks(self) -> int:
        return self.wrong.size

    @property
    def errors(self) -> int:
        return int(np.count_nonzero(self.wrong))

    def report(self, t: int) -> ValidationReport:
        """Run t's own report."""
        errors = int(np.count_nonzero(self.wrong[t]))
        checks = self.wrong[t].size
        return ValidationReport(
            decoy_checks=checks,
            errors=errors,
            threshold=self.threshold,
            verdict="fail" if checks > 0 and errors >= self.threshold else "pass",
            expected=self.expected[t],
            reported=self.reported[t],
            wrong=self.wrong[t],
        )


@dataclass
class Registers:
    """Measured m-bit registers, broker plus one per agent (agent 0 first)."""

    broker: BitVector
    agents: tuple[BitVector, ...]


@dataclass
class Transcript:
    """Everything observable about one run, including all classical traffic."""

    layout: SegmentLayout
    stream_length: int
    decoy_positions: tuple[int, ...]
    stages: tuple[str, ...]
    messages: tuple[ClassicalMessage, ...]
    validation: ValidationReport
    aborted: bool
    registers: Registers | None
    recovered: tuple[BitVector, ...] | None


@dataclass
class RunOutcome:
    """Transcript plus the simulator-private adversary bookkeeping."""

    scenario: Scenario
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
) -> tuple[list[Registers], np.ndarray]:
    """Hadamard every protocol qubit of every tuple and measure.

    The batch holds the embedded information tuples of one run per
    generator, run after run. Returns every run's registers and the
    residual of every tuple: the qubits above n, which only an adversary
    holds, or one amplitude per tuple when there are none.
    """
    runs = len(rngs)
    per_run = batch.shape[0] // runs
    u = np.concatenate([r.random(per_run) for r in rngs])
    bits, residual = sample_rows(batch, range(n), [HADAMARD] * n, u)
    # vectors[t * n + p]: party p's register of run t
    vectors = bit_vectors(
        bits.reshape(runs, per_run, n).transpose(0, 2, 1).reshape(runs * n, per_run)
    )
    registers = [
        Registers(broker=vectors[t * n + n - 1], agents=tuple(vectors[t * n : t * n + n - 1]))
        for t in range(runs)
    ]
    return registers, residual


def run_validation(
    plan: DistributionPlan,
    batch: np.ndarray,
    noise_p: float,
    threshold_fraction: float,
    rngs: Sequence[np.random.Generator],
) -> tuple[ValidationBatch, list[list[ClassicalMessage]]]:
    """Measure every transmitted decoy qubit and compare with the records.

    Agents measure their decoy qubits in the Hadamard basis and report the
    outcomes to the broker, which is the one stage where agent-to-broker
    traffic is part of the protocol. noise_p flips each reported outcome
    independently. The plan and batch may stack several runs, one generator
    each; returns the comparison of the stack and every run's messages.
    Decoy tuples are never read again, so their post-measurement states are
    not kept.
    """
    n, d, runs = plan.n, plan.d, plan.trials
    # per decoy in stream order: the measurement's sample draw, then one
    # noise draw per agent slot
    draws = np.concatenate([r.random((d, n)) for r in rngs])
    bits, _ = sample_rows(batch[plan.is_decoy], range(n - 1), [HADAMARD] * (n - 1), draws[:, 0])
    shape = (runs, d, n - 1)
    reported = (bits ^ (draws[:, 1:] < noise_p)).reshape(shape)
    expected = plan.signs[:, : n - 1].reshape(shape)
    checks = ValidationBatch(
        expected=expected,
        reported=reported,
        wrong=reported != expected,
        threshold=threshold_fraction * (d * (n - 1)),
    )

    # outcomes[t * (n - 1) + i]: agent i's outcomes in run t
    outcomes = bit_vectors(reported.transpose(0, 2, 1).reshape(runs * (n - 1), d))
    messages = []
    for t, is_decoy in enumerate(plan.is_decoy.reshape(runs, plan.m + d)):
        positions = tuple(np.flatnonzero(is_decoy).tolist())
        messages.append(
            [ClassicalMessage(STAGE_VALIDATION, BROKER, ALL_AGENTS, "decoy_positions", positions)]
            + [
                ClassicalMessage(
                    STAGE_VALIDATION, i, BROKER, "decoy_outcomes", outcomes[t * (n - 1) + i]
                )
                for i in range(n - 1)
            ]
        )
    return checks, messages


def classical_exchange(
    registers: Registers, layout: SegmentLayout
) -> tuple[list[ClassicalMessage], dict[int, dict[int, BitVector]]]:
    """Send every register segment to the agent it belongs to.

    The broker sends agent t her segment t; every agent i sends agent t the
    segment t of their own register, for t != i, and keeps segment i private.
    Nothing flows towards the broker. Returns the messages and, per agent,
    the segments of their secret they then hold, keyed by the party they
    came from: their own withheld segment under their own index.
    """
    # segments[p][t]: segment t of party p's register, the broker first
    owned = {BROKER: registers.broker, **dict(enumerate(registers.agents))}
    segments = {p: split(register, layout) for p, register in owned.items()}
    parties = list(segments)
    messages = [
        ClassicalMessage(
            STAGE_EXCHANGE,
            p,
            t,
            "broker_segment" if p == BROKER else "register_segment",
            segments[p][t],
            segment_index=t,
        )
        for p in parties
        for t in range(layout.segments)
        if t != p
    ]
    held = {t: {p: segments[p][t] for p in parties} for t in range(layout.segments)}
    return messages, held


def recover_secret(
    agent: int, held: Mapping[int, BitVector], layout: SegmentLayout
) -> BitVector:
    """Fold the segments of the agent's secret: the broker's, one received
    from every other agent, and the agent's own withheld one."""
    parties = {BROKER, *range(layout.segments)}
    if held.keys() != parties:
        raise ValueError(
            f"agent {agent} holds segments from {sorted(held)}, needs {sorted(parties)}"
        )
    return xor_all(list(held.values()))


def run_trials(scenario: Scenario, seeds: Sequence[int]) -> Iterator[list[RunOutcome]]:
    """Run the scenario once per seed, simulating several runs as one stack.

    A stack holds as many runs as fit in STACK_AMPLITUDES amplitudes, and at
    least one; yields the outcomes of each stack in seed order. Every run
    draws only from the two generators spawned from its own seed, in the
    order a lone run draws, so it matches execute_run at that seed.
    """
    size = max(1, STACK_AMPLITUDES // scenario.stream_amplitudes)
    for start in range(0, len(seeds), size):
        yield _run_stack(scenario, seeds[start : start + size])


def _run_stack(scenario: Scenario, seeds: Sequence[int]) -> list[RunOutcome]:
    streams = [np.random.SeedSequence(seed).spawn(2) for seed in seeds]
    rngs = [np.random.default_rng(protocol) for protocol, _eve in streams]
    eve_rngs = [np.random.default_rng(eve) for _protocol, eve in streams]

    payload, layout = concat_secrets(scenario.secrets)
    n = scenario.n
    m, d = payload.length, scenario.resolved_d
    preamble = ClassicalMessage(
        STAGE_PREAMBLE, BROKER, ALL_AGENTS, "segment_lengths", layout.lengths
    )

    plan = build_plan(m, d, n, rngs)
    batch = plan.states
    if scenario.eve.active:
        batch, eve_record = attack_tuple(scenario.eve, batch, eve_rngs)
    else:
        eve_record = EveRecord(strategy=scenario.eve)
    check_rows(batch)

    validation, validation_messages = run_validation(
        plan, batch, scenario.noise_p, scenario.threshold_fraction, rngs
    )
    reports = [validation.report(t) for t in range(len(seeds))]
    passed = np.array([not report.failed for report in reports])
    registers: list[Registers] = []
    if passed.any():
        # the information tuples of the runs that passed, run after run
        info = (~plan.is_decoy).reshape(len(seeds), m + d) & passed[:, None]
        embedded = embed_secret(batch[info.ravel()], payload, n)
        registers, residual = decrypt_and_measure(
            embedded, n, [r for r, ok in zip(rngs, passed) if ok]
        )
        check_rows(residual)

    # run t's place among the runs that passed
    completed = np.cumsum(passed) - 1
    outcomes = []
    for t, seed in enumerate(seeds):
        stream = slice(t * (m + d), (t + 1) * (m + d))
        record = eve_record.run_record(t, m + d)
        messages = [preamble, *validation_messages[t]]
        run_registers = recovered = None
        if passed[t]:
            p = completed[t]
            run_registers = registers[p]
            exchange_messages, held = classical_exchange(run_registers, layout)
            messages.extend(exchange_messages)
            recovered = tuple(recover_secret(i, held[i], layout) for i in range(n - 1))
            if scenario.eve.active:
                record.final_states = residual[p * m : (p + 1) * m]

        transcript = Transcript(
            layout=layout,
            stream_length=m + d,
            decoy_positions=tuple(np.flatnonzero(plan.is_decoy[stream]).tolist()),
            stages=COMPLETED_STAGES if passed[t] else ABORTED_STAGES,
            messages=tuple(messages),
            validation=reports[t],
            aborted=not passed[t],
            registers=run_registers,
            recovered=recovered,
        )
        outcomes.append(
            RunOutcome(
                scenario=replace(scenario, seed=seed),
                transcript=transcript,
                eve_record=record,
                eve_rng=eve_rngs[t],
            )
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
    """
    violations: list[str] = []
    for msg in transcript.messages:
        if msg.stage in POST_VALIDATION_STAGES and msg.receiver == BROKER:
            violations.append(
                f"party {msg.sender} sent {msg.label!r} to the broker during {msg.stage}"
            )
        # segment indices are agent indices, so only an agent sender can match
        if msg.sender == msg.segment_index:
            violations.append(f"agent {msg.sender} transmitted their own segment {msg.sender}")
    return violations
