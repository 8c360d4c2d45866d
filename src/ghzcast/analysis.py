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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bitvec import BitVector
from .protocol import Registers, Scenario, check_transcript_secrecy, run_trials
from .statevec import distribution, phase_flip_rows, prepare_ghz

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
]

# the joint oracles' float32 amplitudes stay exact only while n*m <= 20 (so m <= 10)
JOINT_ORACLE_QUBIT_CAP = 20
FACTORIZED_PARTY_CAP = 12
FACTORIZED_FREE_BIT_CAP = 20
SUPPORT_CUTOFF = 1e-12
CHI_SQUARE_BUCKET_BITS = 12
HADAMARD_BLOCK_BITS = 5


@dataclass(eq=False)
class OutcomeDistribution:
    """Distribution over joint register outcomes.

    keys (int64) and probs (float64) are parallel arrays holding each
    outcome of the support once; the oracles keep their own key order. A
    key packs the n register values of one outcome: agent p's m-bit block
    sits at bit offset p*m and the broker block is the highest. Rendered
    text therefore reads broker first, then agent n-2 down to agent 0.
    """

    n: int
    m: int
    keys: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        total = self.probs.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, not 1")

    def __eq__(self, other: object) -> bool:
        """Same shape and the same probability for every key, in any key order."""
        if not isinstance(other, OutcomeDistribution):
            return NotImplemented
        if (self.n, self.m) != (other.n, other.m):
            return False
        mine, theirs = np.argsort(self.keys), np.argsort(other.keys)
        return np.array_equal(self.keys[mine], other.keys[theirs]) and np.array_equal(
            self.probs[mine], other.probs[theirs]
        )

    @cached_property
    def entries(self) -> dict[int, float]:
        """key -> probability in key-array order, built on first use."""
        return dict(zip(self.keys.tolist(), self.probs.tolist()))

    def support(self) -> list[int]:
        return np.sort(self.keys).tolist()

    def probability(self, key: int) -> float:
        return float(self.probabilities(np.array([key]))[0])

    def probabilities(self, keys: np.ndarray) -> np.ndarray:
        """Probabilities of the given keys, 0.0 off the support."""
        order = np.argsort(self.keys, kind="stable")
        ordered = self.keys[order]
        at = np.searchsorted(ordered, keys).clip(max=ordered.size - 1)
        return np.where(ordered[at] == keys, self.probs[order[at]], 0.0)

    def key_to_registers(self, key: int) -> Registers:
        mask = (1 << self.m) - 1
        blocks = [BitVector((key >> (p * self.m)) & mask, self.m) for p in range(self.n)]
        return Registers(broker=blocks[-1], agents=tuple(blocks[:-1]))

    def key_from_registers(self, registers: Registers) -> int:
        key = registers.broker.value << ((self.n - 1) * self.m)
        for p, agent in enumerate(registers.agents):
            key |= agent.value << (p * self.m)
        return key

    def render_keys(self, keys) -> list[str]:
        """Text of each key: its n m-bit blocks, broker first, space separated."""
        keys = np.asarray(keys, dtype=">u8")
        n, m = self.n, self.m
        # every block's bits most significant first, then a space; a newline
        # ends each key, so one decode and split yield every text
        bits = np.unpackbits(keys.view(np.uint8).reshape(-1, 8), axis=1)[:, 64 - n * m :]
        text = np.full((keys.size, n, m + 1), ord(" "), dtype=np.uint8)
        text[:, :, :m] = bits.reshape(-1, n, m) + ord("0")
        text[:, -1, m] = ord("\n")
        return text.tobytes().decode("ascii").splitlines()


def _check_parties(n: int) -> None:
    if n < 2:
        raise ValueError("need at least two parties")


def _hadamard_block(g: int) -> np.ndarray:
    """Unnormalised H^{(x)g} as a +-1 float32 matrix: entry (i, j) is (-1)^popcount(i & j)."""
    i = np.arange(1 << g)
    return 1 - 2 * (np.bitwise_count(i[:, None] & i[None, :]) & 1).astype(np.float32)


def _walsh_hadamard(amps: np.ndarray, k: int) -> np.ndarray:
    """Unnormalised H^{(x)k} on the low k index bits of integer-valued
    float32 amps.

    Applied as a blocked Kronecker product, HADAMARD_BLOCK_BITS bits per
    matmul (Fino & Algazi 1976). Every partial sum is a signed sum of the
    nonzero inputs; the oracles start from at most 2^m <= 2^10 entries of
    +-1, far below float32's exact-integer limit of 2^24, so the result is
    exact in any summation order. Kept local for oracle independence.
    """
    for done in range(0, k, HADAMARD_BLOCK_BITS):
        g = min(HADAMARD_BLOCK_BITS, k - done)
        rest = 1 << (k - done - g)
        block = _hadamard_block(g)
        if rest == 1:  # one gemm instead of a stack of matrix-vector products
            amps = amps.reshape(-1, 1 << g) @ block
        else:
            amps = np.matmul(block, amps.reshape(-1, 1 << g, rest))
    return amps.reshape(-1)


def _ghz_branches(payload: BitVector, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the joint branches where all n blocks carry the same m-bit
    label x, and the +-1 phase (-1)^(payload . x) the embedding gives each."""
    m = payload.length
    x = np.arange(1 << m, dtype=np.int64)
    replicate = sum(1 << (p * m) for p in range(n))
    return x * replicate, 1.0 - 2.0 * (np.bitwise_count(x & payload.value) & 1)


def _check_joint_size(n: int, m: int) -> None:
    _check_parties(n)
    if n * m > JOINT_ORACLE_QUBIT_CAP:
        raise ValueError(
            f"joint oracle needs {n * m} qubits, cap is {JOINT_ORACLE_QUBIT_CAP}"
        )


def _check_factorized_size(n: int, m: int) -> None:
    _check_parties(n)
    if n > FACTORIZED_PARTY_CAP:
        raise ValueError(f"party cap for the factorized oracle is {FACTORIZED_PARTY_CAP}")
    # the product table holds 2^((n-1)*m) entries, so that exponent is the
    # binding limit on what can be materialized at all
    if (n - 1) * m > FACTORIZED_FREE_BIT_CAP:
        raise ValueError(
            f"support of 2^{(n - 1) * m} outcomes is too large to materialize"
        )


def _distribution(n: int, m: int, probs: np.ndarray) -> OutcomeDistribution:
    # nonzero of a bool mask is about three times faster than of floats
    keys = np.flatnonzero(probs != 0)
    return OutcomeDistribution(n=n, m=m, keys=keys, probs=probs[keys].astype(np.float64))


def joint_oracle(payload: BitVector, n: int) -> OutcomeDistribution:
    """Exact decryption-stage distribution from the full joint state.

    The broker's output qubit is handled by phase kickback, folding its
    effect into branch signs; explicit_kickback_oracle keeps it as a real
    qubit for cross-checking. Amplitudes are kept as float32 integers,
    2^((m+nm)/2) times the true ones and at most 2^m in magnitude, so
    their squares and every probability are exact dyadics. Capped at
    n*m qubits <= JOINT_ORACLE_QUBIT_CAP.
    """
    m = payload.length
    _check_joint_size(n, m)
    branches, signs = _ghz_branches(payload, n)
    amps = np.zeros(1 << (n * m), dtype=np.float32)
    amps[branches] = signs
    amps = _walsh_hadamard(amps, n * m)
    return _distribution(n, m, np.ldexp(amps * amps, -(m + n * m)))


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
    _check_joint_size(n, m)
    dim = 1 << (n * m)
    # row b holds the branches with the output qubit in state b, in integer
    # units of 2^(-(m+1)/2)
    amps = np.zeros((2, dim), dtype=np.float32)
    amps[:, _ghz_branches(payload, n)[0]] = [[1.0], [-1.0]]
    deviations: dict[str, float] = {}

    def record(stage: str, scale_bits: int) -> None:
        deviations[stage] = float(np.max(np.abs(amps[1] + amps[0]))) * 2.0 ** (-scale_bits / 2)

    record("initial", m + 1)

    broker = np.arange(dim) >> ((n - 1) * m)
    for j in range(m):
        if payload.bit(j):
            control = ((broker >> j) & 1).astype(bool)
            amps[:, control] = amps[::-1, control]
    record("embedded", m + 1)

    amps = _walsh_hadamard(amps, n * m).reshape(2, dim)
    record("decrypted", m + 1 + n * m)

    probs = np.ldexp(amps[0] * amps[0] + amps[1] * amps[1], -(m + 1 + n * m))
    return _distribution(n, m, probs), deviations


def factorized_oracle(payload: BitVector, n: int) -> OutcomeDistribution:
    """Product of exact per-tuple distributions from the gate simulator."""
    m = payload.length
    _check_factorized_size(n, m)

    # row b is the tuple distribution for payload bit b
    ghz = prepare_ghz(n)
    per_bit = distribution(np.concatenate([ghz, phase_flip_rows(ghz, n - 1)]), True)
    # spread[v] scatters tuple outcome bits to bit offset p*m per party
    v = np.arange(1 << n)
    spread = sum(((v >> p) & 1) << (p * m) for p in range(n))
    supports = [np.flatnonzero(probs > SUPPORT_CUTOFF) for probs in per_bit]

    # v-major outer products keep the insertion order of a loop over
    # tuple outcomes v, then over the entries so far
    keys = np.zeros(1, dtype=np.int64)
    probs = np.ones(1)
    for j in range(m):
        outcomes = supports[payload.bit(j)]
        keys = ((spread[outcomes] << j)[:, None] | keys).reshape(-1)
        probs = (probs * per_bit[payload.bit(j)][outcomes][:, None]).reshape(-1)
    return OutcomeDistribution(n=n, m=m, keys=keys, probs=probs)


def analytic_sample_keys(
    payload: BitVector, n: int, rng: np.random.Generator, count: int
) -> np.ndarray:
    """Vectorized batch of outcome keys from the closed-form distribution.

    Keys are packed into uint64, so n*m is capped at 64.
    """
    m = payload.length
    _check_parties(n)
    if n * m > 64:
        raise ValueError(f"key packing needs n*m <= 64, got {n * m}")
    free = rng.integers(0, 2, size=(count, n - 1, m), dtype=np.uint64)
    width = (n - 1) * m
    low = free.reshape(count, width) @ (np.uint64(1) << np.arange(width, dtype=np.uint64))
    # on the support the broker block is the XOR of the agent blocks and the payload
    broker = np.full(count, payload.value, dtype=np.uint64)
    mask = np.uint64((1 << m) - 1)
    for p in range(n - 1):
        broker ^= (low >> np.uint64(p * m)) & mask
    return low | (broker << np.uint64(width))


def support_violations(dist: OutcomeDistribution, keys: np.ndarray) -> int:
    # numpy sorts unless the key range is under about 6x the two sizes; joint
    # keys span at most 2^JOINT_ORACLE_QUBIT_CAP, so a lookup table is far cheaper
    support = dist.keys.astype(keys.dtype)
    return int(np.count_nonzero(~np.isin(keys, support, kind="table")))


def sample_pvalue(dist: OutcomeDistribution, keys: np.ndarray) -> float:
    """Chi-square p-value of sampled keys against an exact distribution.

    Outcomes are identified with their free agent-register bits (the broker
    block is determined by them on the support). When the support is larger
    than 2 to the CHI_SQUARE_BUCKET_BITS, outcomes are folded onto their low
    free bits so expected counts stay well above the chi-square validity
    floor.
    """
    # imported here, its only use, so that importing ghzcast skips scipy.stats
    from scipy import stats as scipy_stats

    bucket_bits = min((dist.n - 1) * dist.m, CHI_SQUARE_BUCKET_BITS)
    bucket_mask = (1 << bucket_bits) - 1
    expected = np.bincount(dist.keys & bucket_mask, weights=dist.probs, minlength=1 << bucket_bits)
    observed = np.bincount(keys.astype(np.int64) & bucket_mask, minlength=1 << bucket_bits)
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

    # trial t runs at the t-th seed drawn from the scenario's own seed; seeds
    # are drawn as the stacks need them, so no trial count has to fit in memory
    master = np.random.default_rng(scenario.seed)
    seeds = (int(master.integers(0, 2**63)) for _ in range(trials))
    t = 0
    for stack in run_trials(scenario, seeds):
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
            for guess, truth in zip(outcome.eve_guesses(), scenario.secrets):
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
