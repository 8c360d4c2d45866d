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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .adversary import EveRecord, EveStrategy, attack_tuple, eve_postprocess
from .bitvec import BitVector, SegmentLayout, concat_secrets, segment, xor_all
from .distribution import DistributionPlan, build_plan
from .statevec import HADAMARD, MAX_QUBITS, check_rows, measure_rows, phase_flip_rows

__all__ = [
    "Scenario",
    "ClassicalMessage",
    "ValidationReport",
    "Registers",
    "Transcript",
    "RunOutcome",
    "embed_secret",
    "decrypt_and_measure",
    "run_validation",
    "classical_exchange",
    "recover_secret",
    "execute_run",
    "run_protocol",
    "check_transcript_secrecy",
]

BROKER = "broker"
ALL_AGENTS = "all_agents"

STAGE_PREAMBLE = "preamble"
STAGE_DISTRIBUTION = "distribution"
STAGE_VALIDATION = "validation"
STAGE_EMBEDDING = "embedding"
STAGE_DECRYPTION = "decryption"
STAGE_EXCHANGE = "exchange"
STAGE_RECOVERY = "recovery"


def agent_name(i: int) -> str:
    return f"agent_{i}"


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
        if not 0.0 <= self.noise_p <= 1.0:
            raise ValueError("noise_p must lie in [0, 1]")
        if not 0.0 < self.threshold_fraction < 1.0:
            raise ValueError("threshold_fraction must lie strictly between 0 and 1")
        self.eve.validate_for(self.n)
        qubits = self.n + self.eve.extra_qubits(self.n)
        if qubits > MAX_QUBITS:
            raise ValueError(
                f"tuples of {qubits} qubits, Eve's included, exceed the cap of {MAX_QUBITS}"
            )

    @property
    def payload_length(self) -> int:
        return sum(len(s) for s in self.secrets)

    @property
    def resolved_d(self) -> int:
        return self.payload_length if self.d is None else self.d


@dataclass(frozen=True)
class ClassicalMessage:
    stage: str
    sender: str
    receiver: str
    label: str
    payload: str
    segment_index: int | None = None


@dataclass
class ValidationReport:
    """Outcome of the decoy comparison.

    decoy_checks counts every transmitted decoy qubit, d * (n - 1); the
    threshold is threshold_fraction times that count and the verdict is fail
    exactly when errors reach it. check_results holds one entry per check as
    (stream position, agent slot, expected, reported, error).
    """

    decoy_checks: int
    errors: int
    threshold: float
    verdict: str
    check_results: tuple[tuple[int, int, int, int, bool], ...] = ()

    @property
    def failed(self) -> bool:
        return self.verdict == "fail"


@dataclass
class Registers:
    """Measured m-bit registers, broker plus one per agent (agent 0 first)."""

    broker: BitVector
    agents: tuple[BitVector, ...]


@dataclass
class Transcript:
    """Everything observable about one run, including all classical traffic."""

    n: int
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
    payload: BitVector
    layout: SegmentLayout
    transcript: Transcript
    eve_record: EveRecord
    eve_rng: np.random.Generator

    def eve_guesses(self) -> tuple[BitVector, ...]:
        return eve_postprocess(self.eve_record, self.transcript, self.eve_rng)


def embed_secret(batch: np.ndarray, payload: BitVector, n: int) -> np.ndarray:
    """Embed payload bit j into information tuple j, row j of the batch.

    The broker's output qubit stays in the minus state while each of her
    tuple qubits controls a CNOT onto it, which kicks a phase of -1 onto the
    branch where tuple qubit j is 1 whenever payload bit j is 1. The oracle
    module keeps an explicit-output-qubit variant for cross-checking.
    """
    if batch.shape[0] != payload.length:
        raise ValueError(f"need {payload.length} tuples, got {batch.shape[0]}")
    flips = np.array(payload.bits(), dtype=bool)
    out = batch.copy()
    out[flips] = phase_flip_rows(batch[flips], n - 1)
    return out


def decrypt_and_measure(
    batch: np.ndarray, n: int, rng: np.random.Generator
) -> tuple[Registers, np.ndarray]:
    """Hadamard every protocol qubit of every tuple and measure.

    Returns the assembled registers and the collapsed tuple batch (any
    adversary-held qubits in it remain unmeasured).
    """
    bits, collapsed = measure_rows(batch, range(n), [HADAMARD] * n, rng.random(batch.shape[0]))
    registers = Registers(
        broker=BitVector.from_bits(bits[:, n - 1].tolist()),
        agents=tuple(BitVector.from_bits(bits[:, i].tolist()) for i in range(n - 1)),
    )
    return registers, collapsed


def run_validation(
    plan: DistributionPlan,
    batch: np.ndarray,
    noise_p: float,
    threshold_fraction: float,
    rng: np.random.Generator,
) -> tuple[ValidationReport, list[ClassicalMessage]]:
    """Measure every transmitted decoy qubit and compare with the records.

    Agents measure their decoy qubits in the Hadamard basis and report the
    outcomes to the broker, which is the one stage where agent-to-broker
    traffic is part of the protocol. noise_p flips each reported outcome
    independently. The collapsed decoy rows are written back into batch.
    """
    n = plan.n
    decoys = plan.decoy_positions
    messages = [
        ClassicalMessage(
            stage=STAGE_VALIDATION,
            sender=BROKER,
            receiver=ALL_AGENTS,
            label="decoy_positions",
            payload=",".join(str(p) for p in decoys),
        )
    ]
    # per decoy in stream order: the measurement's sample draw, then one
    # noise draw per agent slot
    draws = rng.random((plan.d, n))
    bits, collapsed = measure_rows(
        batch[plan.is_decoy], range(n - 1), [HADAMARD] * (n - 1), draws[:, 0]
    )
    batch[plan.is_decoy] = collapsed
    reported = bits ^ (draws[:, 1:] < noise_p)
    expected = plan.signs[:, : n - 1]
    wrong = reported != expected
    positions = np.repeat(np.flatnonzero(plan.is_decoy), n - 1)
    slots = np.tile(np.arange(n - 1), plan.d)
    check_results = tuple(
        zip(
            positions.tolist(),
            slots.tolist(),
            expected.ravel().tolist(),
            reported.ravel().tolist(),
            wrong.ravel().tolist(),
        )
    )

    for i in range(n - 1):
        report = reported[:, i].tolist()
        messages.append(
            ClassicalMessage(
                stage=STAGE_VALIDATION,
                sender=agent_name(i),
                receiver=BROKER,
                label="decoy_outcomes",
                payload=str(BitVector.from_bits(report)) if report else "",
            )
        )

    errors = int(wrong.sum())
    decoy_checks = plan.d * (n - 1)
    threshold = threshold_fraction * decoy_checks
    verdict = "fail" if decoy_checks > 0 and errors >= threshold else "pass"
    report = ValidationReport(
        decoy_checks=decoy_checks,
        errors=errors,
        threshold=threshold,
        verdict=verdict,
        check_results=check_results,
    )
    return report, messages


def classical_exchange(
    registers: Registers, layout: SegmentLayout
) -> tuple[list[ClassicalMessage], dict[int, dict[str | int, BitVector]]]:
    """Send every register segment to the agent it belongs to.

    The broker sends agent t her segment t; every agent i sends agent t the
    segment t of their own register, for t != i, and keeps segment i private.
    Nothing flows towards the broker. Returns the messages and, per agent,
    the received segments keyed by sender.
    """
    n_agents = layout.segments
    messages: list[ClassicalMessage] = []
    received: dict[int, dict[str | int, BitVector]] = {t: {} for t in range(n_agents)}
    for t in range(n_agents):
        seg = segment(registers.broker, layout, t)
        received[t][BROKER] = seg
        messages.append(
            ClassicalMessage(
                stage=STAGE_EXCHANGE,
                sender=BROKER,
                receiver=agent_name(t),
                label="broker_segment",
                payload=str(seg),
                segment_index=t,
            )
        )
    for i in range(n_agents):
        for t in range(n_agents):
            if t == i:
                continue
            seg = segment(registers.agents[i], layout, t)
            received[t][i] = seg
            messages.append(
                ClassicalMessage(
                    stage=STAGE_EXCHANGE,
                    sender=agent_name(i),
                    receiver=agent_name(t),
                    label="register_segment",
                    payload=str(seg),
                    segment_index=t,
                )
            )
    return messages, received


def recover_secret(
    agent: int,
    own_register: BitVector,
    received: Mapping[str | int, BitVector],
    layout: SegmentLayout,
) -> BitVector:
    """Fold the received segments with the agent's own withheld segment."""
    parts = [received[BROKER]]
    for i in range(layout.segments):
        if i == agent:
            parts.append(segment(own_register, layout, agent))
        else:
            if i not in received:
                raise ValueError(f"missing segment from agent {i}")
            parts.append(received[i])
    return xor_all(parts)


def execute_run(scenario: Scenario) -> RunOutcome:
    """Run the protocol once and return the transcript plus Eve's records."""
    seed_seq = np.random.SeedSequence(scenario.seed)
    rng_protocol, rng_eve = [np.random.default_rng(s) for s in seed_seq.spawn(2)]

    payload, layout = concat_secrets(scenario.secrets)
    n = scenario.n
    d = scenario.resolved_d
    stages: list[str] = [STAGE_PREAMBLE]
    messages: list[ClassicalMessage] = [
        ClassicalMessage(
            stage=STAGE_PREAMBLE,
            sender=BROKER,
            receiver=ALL_AGENTS,
            label="segment_lengths",
            payload=",".join(str(m) for m in layout.lengths),
        )
    ]

    plan = build_plan(payload.length, d, n, rng_protocol)
    batch = plan.states
    if scenario.eve.active:
        batch, eve_record = attack_tuple(scenario.eve, batch, rng_eve)
    else:
        eve_record = EveRecord(strategy=scenario.eve, n=n)
    check_rows(batch)
    stages.append(STAGE_DISTRIBUTION)

    report, vt_messages = run_validation(
        plan, batch, scenario.noise_p, scenario.threshold_fraction, rng_protocol
    )
    check_rows(batch)
    messages.extend(vt_messages)
    stages.append(STAGE_VALIDATION)

    registers: Registers | None = None
    recovered: tuple[BitVector, ...] | None = None
    if not report.failed:
        info = ~plan.is_decoy
        embedded = embed_secret(batch[info], payload, n)
        stages.append(STAGE_EMBEDDING)

        registers, collapsed = decrypt_and_measure(embedded, n, rng_protocol)
        batch[info] = collapsed
        check_rows(batch)
        stages.append(STAGE_DECRYPTION)

        exchange_messages, received = classical_exchange(registers, layout)
        messages.extend(exchange_messages)
        stages.append(STAGE_EXCHANGE)

        recovered = tuple(
            recover_secret(t, registers.agents[t], received[t], layout)
            for t in range(n - 1)
        )
        stages.append(STAGE_RECOVERY)

    if scenario.eve.active:
        eve_record.final_states = batch

    transcript = Transcript(
        n=n,
        layout=layout,
        stream_length=payload.length + d,
        decoy_positions=plan.decoy_positions,
        stages=tuple(stages),
        messages=tuple(messages),
        validation=report,
        aborted=report.failed,
        registers=registers,
        recovered=recovered,
    )
    return RunOutcome(
        scenario=scenario,
        payload=payload,
        layout=layout,
        transcript=transcript,
        eve_record=eve_record,
        eve_rng=rng_eve,
    )


def run_protocol(scenario: Scenario) -> Transcript:
    return execute_run(scenario).transcript


def check_transcript_secrecy(transcript: Transcript) -> list[str]:
    """Structural secrecy checks on the classical traffic.

    Returns a description of every violation found: an agent sending their
    own withheld segment, or any agent-to-broker message after validation.
    """
    violations: list[str] = []
    post_validation = {STAGE_EMBEDDING, STAGE_DECRYPTION, STAGE_EXCHANGE, STAGE_RECOVERY}
    for msg in transcript.messages:
        if msg.stage in post_validation and msg.receiver == BROKER:
            violations.append(
                f"{msg.sender} sent {msg.label!r} to the broker during {msg.stage}"
            )
        if (
            msg.sender.startswith("agent_")
            and msg.segment_index is not None
            and msg.segment_index == int(msg.sender.split("_")[1])
        ):
            violations.append(
                f"{msg.sender} transmitted their own segment {msg.segment_index}"
            )
    return violations
