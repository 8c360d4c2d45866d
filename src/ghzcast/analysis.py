"""Exact outcome oracles and Monte-Carlo security statistics.

Three independent routes to the decryption-stage outcome distribution keep
each other honest:

- joint_oracle builds the full joint state of all tuples directly from the
  m-fold Hadamard expansion, with its own transform, and never touches the
  gate-level simulator.
- factorized_oracle multiplies exact per-tuple Born distributions computed by
  the gate-level simulator.
- analytic_sample_keys draws register outcomes from the closed-form
  solution set: uniform agent bits with the broker bit fixed by the payload
  parity.

The experiment helpers quantify detection and secrecy: per-decoy-qubit error
rates under each attack, abort frequency against the validation threshold,
and the adversary's per-bit guess accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from typing import Iterator

import numpy as np
from scipy import stats as scipy_stats

from .adversary import EveStrategy
from .bitvec import BitVector
from .protocol import Registers, RunOutcome, Scenario, check_transcript_secrecy, run_trials
from .statevec import HADAMARD, apply_phase_flip, distribution, prepare_ghz

__all__ = [
    "JOINT_ORACLE_QUBIT_CAP",
    "OutcomeDistribution",
    "joint_oracle",
    "explicit_kickback_oracle",
    "factorized_oracle",
    "analytic_sample_keys",
    "support_violations",
    "sample_pvalue",
    "wilson_interval",
    "TrialRow",
    "ExperimentStats",
    "detection_experiment",
    "CorrelationStat",
    "decoy_correlation_stat",
]

JOINT_ORACLE_QUBIT_CAP = 20
FACTORIZED_PARTY_CAP = 12
FACTORIZED_BIT_CAP = 20
FACTORIZED_FREE_BIT_CAP = 20
SUPPORT_CUTOFF = 1e-12
CHI_SQUARE_BUCKET_BITS = 12


@dataclass
class OutcomeDistribution:
    """Distribution over joint register outcomes.

    A key packs the n register values of one outcome: agent p's m-bit block
    sits at bit offset p*m and the broker block is the highest. Rendered
    text therefore reads broker first, then agent n-2 down to agent 0.
    """

    n: int
    m: int
    entries: dict[int, float]

    def __post_init__(self) -> None:
        total = sum(self.entries.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, not 1")

    def support(self) -> list[int]:
        return sorted(self.entries)

    def probability(self, key: int) -> float:
        return self.entries.get(key, 0.0)

    def key_to_registers(self, key: int) -> Registers:
        mask = (1 << self.m) - 1
        blocks = [BitVector((key >> (p * self.m)) & mask, self.m) for p in range(self.n)]
        return Registers(broker=blocks[-1], agents=tuple(blocks[:-1]))

    def key_from_registers(self, registers: Registers) -> int:
        key = registers.broker.value << ((self.n - 1) * self.m)
        for p, agent in enumerate(registers.agents):
            key |= agent.value << (p * self.m)
        return key

    def render_key(self, key: int) -> str:
        mask = (1 << self.m) - 1
        parts = [
            format((key >> (p * self.m)) & mask, f"0{self.m}b")
            for p in range(self.n - 1, -1, -1)
        ]
        return " ".join(parts)


def _walsh_hadamard(amps: np.ndarray, k: int) -> np.ndarray:
    """Normalized k-fold Hadamard transform, kept local for oracle independence."""
    a = amps.reshape((2,) * k)
    for ax in range(k):
        a0 = a.take(0, axis=ax)
        a1 = a.take(1, axis=ax)
        a = np.stack((a0 + a1, a0 - a1), axis=ax)
    return a.reshape(-1) / np.sqrt(float(1 << k))


def _plain_joint_amplitudes(m: int, n: int) -> np.ndarray:
    """Joint state of m GHZ tuples across n parties, nothing embedded yet.

    A uniform superposition over the branches where all n blocks carry the
    same m-bit label x.
    """
    x = np.arange(1 << m, dtype=np.int64)
    replicate = sum(1 << (p * m) for p in range(n))
    amps = np.zeros(1 << (n * m), dtype=np.complex128)
    amps[x * replicate] = 1.0 / np.sqrt(float(1 << m))
    return amps


def _embed_signs(amps: np.ndarray, payload: BitVector, n: int) -> None:
    """Fold the embedding into branch signs: branch x picks up the phase
    (-1) to the mod-2 inner product of payload and x."""
    m = payload.length
    x = np.arange(1 << m, dtype=np.int64)
    replicate = sum(1 << (p * m) for p in range(n))
    signs = (np.bitwise_count((x & payload.value).astype(np.uint64)) & 1).astype(np.float64)
    amps[x * replicate] *= (-1.0) ** signs


def joint_oracle(payload: BitVector, n: int) -> OutcomeDistribution:
    """Exact decryption-stage distribution from the full joint state.

    The broker's output qubit is handled by phase kickback, folding its
    effect into branch signs; explicit_kickback_oracle keeps it as a real
    qubit for cross-checking. Capped at n*m qubits <= JOINT_ORACLE_QUBIT_CAP.
    """
    m = payload.length
    if n < 2:
        raise ValueError("need at least two parties")
    if n * m > JOINT_ORACLE_QUBIT_CAP:
        raise ValueError(
            f"joint oracle needs {n * m} qubits, cap is {JOINT_ORACLE_QUBIT_CAP}"
        )
    amps = _plain_joint_amplitudes(m, n)
    _embed_signs(amps, payload, n)
    amps = _walsh_hadamard(amps, n * m)
    probs = np.abs(amps) ** 2
    keys = np.nonzero(probs > SUPPORT_CUTOFF)[0]
    return OutcomeDistribution(
        n=n, m=m, entries={int(k): float(probs[k]) for k in keys}
    )


def explicit_kickback_oracle(
    payload: BitVector, n: int
) -> tuple[OutcomeDistribution, dict[str, float]]:
    """Joint oracle with the broker's output qubit modeled explicitly.

    The output qubit starts in the minus state and takes one CNOT from the
    broker's qubit of every tuple whose payload bit is 1. Returns the final
    distribution over the protocol registers together with, per stage
    boundary, how far the output qubit deviates from remaining separable in
    the minus state (amplitude-wise, 0 means exactly separable).
    """
    m = payload.length
    if n * m > JOINT_ORACLE_QUBIT_CAP:
        raise ValueError("explicit variant exceeds the qubit cap")
    dim = 1 << (n * m)
    base = _plain_joint_amplitudes(m, n)
    amps = np.concatenate((base, -base)) / np.sqrt(2.0)
    deviations: dict[str, float] = {}

    def record(stage: str) -> None:
        deviations[stage] = float(np.max(np.abs(amps[dim:] + amps[:dim])))

    record("initial")

    idx = np.arange(2 * dim, dtype=np.int64)
    for j in range(m):
        if not payload.bit(j):
            continue
        control = (idx >> ((n - 1) * m + j)) & 1
        flipped = idx ^ (1 << (n * m))
        amps = np.where(control == 1, amps[flipped], amps)
    record("embedded")

    half0 = _walsh_hadamard(amps[:dim], n * m)
    half1 = _walsh_hadamard(amps[dim:], n * m)
    amps = np.concatenate((half0, half1))
    record("decrypted")

    probs = np.abs(amps[:dim]) ** 2 + np.abs(amps[dim:]) ** 2
    keys = np.nonzero(probs > SUPPORT_CUTOFF)[0]
    dist = OutcomeDistribution(
        n=n, m=m, entries={int(k): float(probs[k]) for k in keys}
    )
    return dist, deviations


def factorized_oracle(payload: BitVector, n: int) -> OutcomeDistribution:
    """Product of exact per-tuple distributions from the gate simulator."""
    m = payload.length
    if n > FACTORIZED_PARTY_CAP:
        raise ValueError(f"party cap for the factorized oracle is {FACTORIZED_PARTY_CAP}")
    if m > FACTORIZED_BIT_CAP:
        raise ValueError(f"payload cap for the factorized oracle is {FACTORIZED_BIT_CAP}")
    # the product table holds 2^((n-1)*m) entries, so that exponent is the
    # binding limit on what can be materialized at all
    if (n - 1) * m > FACTORIZED_FREE_BIT_CAP:
        raise ValueError(
            f"support of 2^{(n - 1) * m} outcomes is too large to materialize"
        )

    ghz = prepare_ghz(n)
    bases = [HADAMARD] * n
    per_bit = {
        0: distribution(ghz, bases),
        1: distribution(apply_phase_flip(ghz, n - 1), bases),
    }
    supports = {
        bit: [(int(v), float(p)) for v, p in enumerate(probs) if p > SUPPORT_CUTOFF]
        for bit, probs in per_bit.items()
    }
    # spread_table[v] scatters tuple outcome bits to bit offset p*m per party
    spread_table = [
        sum(((v >> p) & 1) << (p * m) for p in range(n)) for v in range(1 << n)
    ]

    entries = {0: 1.0}
    for j in range(m):
        step: dict[int, float] = {}
        for v, p in supports[payload.bit(j)]:
            placed = spread_table[v] << j
            for key, q in entries.items():
                step[key | placed] = q * p
        entries = step
    return OutcomeDistribution(n=n, m=m, entries=entries)


def analytic_sample_keys(
    payload: BitVector, n: int, rng: np.random.Generator, count: int
) -> np.ndarray:
    """Vectorized batch of outcome keys from the closed-form distribution.

    Keys are packed into uint64, so n*m is capped at 64.
    """
    m = payload.length
    if n * m > 64:
        raise ValueError(f"key packing needs n*m <= 64, got {n * m}")
    free = rng.integers(0, 2, size=(count, n - 1, m), dtype=np.uint64)
    powers = (np.uint64(1) << np.arange(m, dtype=np.uint64))
    blocks = free @ powers
    parity = free.sum(axis=1) % 2
    payload_bits = np.array(payload.bits(), dtype=np.uint64)
    broker_block = (parity ^ payload_bits) @ powers
    keys = broker_block << np.uint64((n - 1) * m)
    for p in range(n - 1):
        keys |= blocks[:, p] << np.uint64(p * m)
    return keys


def support_violations(dist: OutcomeDistribution, keys: np.ndarray) -> int:
    support = set(dist.entries)
    return int(sum(1 for k in keys.tolist() if k not in support))


def sample_pvalue(dist: OutcomeDistribution, keys: np.ndarray) -> float:
    """Chi-square p-value of sampled keys against an exact distribution.

    Outcomes are identified with their free agent-register bits (the broker
    block is determined by them on the support). When the support is larger
    than 2 to the CHI_SQUARE_BUCKET_BITS, outcomes are folded onto their low
    free bits so expected counts stay well above the chi-square validity
    floor.
    """
    free_bits = (dist.n - 1) * dist.m
    bucket_bits = min(free_bits, CHI_SQUARE_BUCKET_BITS)
    bucket_mask = (1 << bucket_bits) - 1

    expected = np.zeros(1 << bucket_bits)
    free_mask = (1 << free_bits) - 1
    for key, p in dist.entries.items():
        expected[(key & free_mask) & bucket_mask] += p

    observed = np.bincount(
        (keys.astype(np.int64) & free_mask) & bucket_mask, minlength=1 << bucket_bits
    )
    total = observed.sum()
    return float(scipy_stats.chisquare(observed, expected * total).pvalue)


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval center and radius for a binomial rate."""
    if trials == 0:
        return (float("nan"), float("nan"))
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    radius = z * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return (float(center), float(radius))


@dataclass
class TrialRow:
    trial: int
    errors: int
    decoy_checks: int
    verdict: str
    eve_bit_accuracy: float


@dataclass
class ExperimentStats:
    """Aggregates over repeated protocol runs of one scenario.

    Attacked counts are restricted to decoy qubits on targeted slots, which
    is where the per-qubit and per-tuple rates of the attack models live;
    check rates over all transmitted decoy qubits are kept alongside.
    """

    trials: int
    aborts: int
    abort_rate: float
    abort_radius: float
    all_checks: int
    all_errors: int
    check_error_rate: float
    attacked_checks: int
    attacked_errors: int
    attacked_error_rate: float | None
    attacked_error_radius: float | None
    attacked_tuples: int
    tuples_with_error: int
    tuple_error_rate: float | None
    tuple_error_radius: float | None
    eve_bits: int
    eve_correct: int
    eve_accuracy: float
    eve_accuracy_radius: float
    secrecy_violations: int
    rows: list[TrialRow] | None = None


def _trial_stacks(scenario: Scenario, trials: int) -> Iterator[list[RunOutcome]]:
    """Outcomes of the scenario's trials, stack by stack; trial t runs at
    the t-th seed drawn from the scenario's own seed."""
    master = np.random.default_rng(scenario.seed)
    trial_seeds = master.integers(0, 2**63, size=trials)
    return run_trials(scenario, trial_seeds.tolist())


def detection_experiment(
    scenario: Scenario, trials: int, collect_rows: bool = False
) -> ExperimentStats:
    """Run a scenario many times with independent per-trial seed streams."""
    if trials < 1:
        raise ValueError("need at least one trial")

    targets = list(scenario.eve.resolved_targets(scenario.n)) if scenario.eve.active else []
    aborts = 0
    all_checks = all_errors = 0
    attacked_checks = attacked_errors = 0
    attacked_tuples = tuples_with_error = 0
    eve_bits = eve_correct = 0
    secrecy_violations = 0
    rows: list[TrialRow] | None = [] if collect_rows else None

    t = 0
    for stack in _trial_stacks(scenario, trials):
        if targets:
            wrong = np.stack([o.transcript.validation.wrong for o in stack])
            # (trials, d, k): the checks of the targeted slots
            attacked = wrong[:, :, targets]
            attacked_checks += attacked.size
            attacked_errors += int(np.count_nonzero(attacked))
            attacked_tuples += attacked.shape[0] * attacked.shape[1]
            tuples_with_error += int(np.count_nonzero(attacked.any(axis=2)))

        for outcome in stack:
            transcript = outcome.transcript
            report = transcript.validation
            secrecy_violations += len(check_transcript_secrecy(transcript))

            aborts += transcript.aborted
            all_checks += report.decoy_checks
            all_errors += report.errors

            trial_bits = trial_correct = 0
            for guess, truth in zip(outcome.eve_guesses(), outcome.scenario.secrets):
                trial_bits += len(truth)
                trial_correct += len(truth) - (guess.value ^ truth.value).bit_count()
            eve_bits += trial_bits
            eve_correct += trial_correct

            if rows is not None:
                rows.append(
                    TrialRow(
                        trial=t,
                        errors=report.errors,
                        decoy_checks=report.decoy_checks,
                        verdict=report.verdict,
                        eve_bit_accuracy=trial_correct / trial_bits if trial_bits else 0.0,
                    )
                )
            t += 1

    _, abort_radius = wilson_interval(aborts, trials)
    attacked_rate, attacked_radius = (
        (attacked_errors / attacked_checks, wilson_interval(attacked_errors, attacked_checks)[1])
        if attacked_checks
        else (None, None)
    )
    tuple_rate, tuple_radius = (
        (tuples_with_error / attacked_tuples, wilson_interval(tuples_with_error, attacked_tuples)[1])
        if attacked_tuples
        else (None, None)
    )
    _, eve_radius = wilson_interval(eve_correct, eve_bits)

    return ExperimentStats(
        trials=trials,
        aborts=aborts,
        abort_rate=aborts / trials,
        abort_radius=abort_radius,
        all_checks=all_checks,
        all_errors=all_errors,
        check_error_rate=all_errors / all_checks if all_checks else 0.0,
        attacked_checks=attacked_checks,
        attacked_errors=attacked_errors,
        attacked_error_rate=attacked_rate,
        attacked_error_radius=attacked_radius,
        attacked_tuples=attacked_tuples,
        tuples_with_error=tuples_with_error,
        tuple_error_rate=tuple_rate,
        tuple_error_radius=tuple_radius,
        eve_bits=eve_bits,
        eve_correct=eve_correct,
        eve_accuracy=eve_correct / eve_bits if eve_bits else 0.0,
        eve_accuracy_radius=eve_radius,
        secrecy_violations=secrecy_violations,
        rows=rows,
    )


@dataclass
class CorrelationStat:
    """Pairwise agreement of attacked decoy outcomes within a tuple.

    Replacement and ancilla attacks leave the attacked decoy qubits uniform
    and independent in the Hadamard basis, so their pairwise agreement stays
    at the honest baseline of one half; this statistic reports rather than
    assumes that.
    """

    attacked_pairs: int
    attacked_agreement: float
    honest_pairs: int
    honest_agreement: float
    sigma: float
    flagged: bool


def decoy_correlation_stat(scenario: Scenario, trials: int) -> CorrelationStat:
    if not scenario.eve.active or scenario.eve.k < 2:
        raise ValueError("correlation statistic needs an attack on k >= 2 qubits")

    def agreement(sc: Scenario, slots: list[int]) -> tuple[int, int]:
        pairs = agree = 0
        for stack in _trial_stacks(sc, trials):
            reported = np.stack([o.transcript.validation.reported for o in stack])
            reported = reported[:, :, slots]
            for a, b in combinations(range(len(slots)), 2):
                pairs += reported[:, :, a].size
                agree += int(np.count_nonzero(reported[:, :, a] == reported[:, :, b]))
        return pairs, agree

    slots = sorted(scenario.eve.resolved_targets(scenario.n))
    attacked_pairs, attacked_agree = agreement(scenario, slots)
    honest_pairs, honest_agree = agreement(
        replace(scenario, eve=EveStrategy()), slots
    )
    attacked_rate = attacked_agree / attacked_pairs
    honest_rate = honest_agree / honest_pairs
    sigma = float(np.sqrt(0.25 / attacked_pairs))
    return CorrelationStat(
        attacked_pairs=attacked_pairs,
        attacked_agreement=attacked_rate,
        honest_pairs=honest_pairs,
        honest_agreement=honest_rate,
        sigma=sigma,
        flagged=abs(attacked_rate - 0.5) > 3 * sigma,
    )
