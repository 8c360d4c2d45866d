"""Workloads of the ghzcast benchmark: seeded inputs, ops and output gates.

An op is one call of a workload's entry point. Each workload turns its seed
into cycles of op inputs; every cycle covers the same shapes (scenario kinds
or oracle sizes) in a seed-drawn order with seed-drawn secrets, payloads and
trial seeds, so the cost of a cycle does not depend on the seed. The
benchmark times whole cycles only.

The program receives only generated Scenarios and payloads and is driven
through public entry points of ghzcast.analysis and ghzcast.protocol. Every
op is checked after its timed call; run level statistics are checked against
exact values in gate().
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import NamedTuple

import numpy as np

from ghzcast import analysis, protocol
from ghzcast.adversary import (
    ALWAYS_COMPUTATIONAL,
    ENTANGLE_ANCILLA,
    INTERCEPT_REPLACE,
    MEASURE_RESEND,
    RANDOM_BASIS,
    EveStrategy,
)
from ghzcast.bitvec import BitVector
from ghzcast.protocol import Scenario

TRIALS_PER_OP = 10

# The Wilson radius of an attacked-qubit error rate is taken at this z, so
# that the four rate checks of one attack_detect run together fail a correct
# program in under 1e-4 of runs (two-sided tail 6.8e-6 each).
WILSON_Z = 4.5
# The chi-square floor of one oracle_triangle run is split evenly across its
# configs (Bonferroni), so a correct sampler fails it in about 1e-4 of runs.
CHI_SQUARE_RUN_FLOOR = 1e-4
ORACLE_TOLERANCE = 1e-10
ORACLE_SAMPLES = 10**5
# Statistics of the first ops of the timed loop are recorded as a
# fingerprint; the prefix runs in every run whatever the machine's speed.
FINGERPRINT_OPS = 8

# The four attack shapes of ATTACK_SCENARIOS in tests/test_acceptance.py
# with the per-qubit error rate each one induces on the attacked slots.
ATTACKS = (
    ("measure_resend/computational", EveStrategy(tag=MEASURE_RESEND, basis_policy=ALWAYS_COMPUTATIONAL, k=1), 0.5),
    ("measure_resend/random", EveStrategy(tag=MEASURE_RESEND, basis_policy=RANDOM_BASIS, k=2), 0.25),
    ("intercept_replace", EveStrategy(tag=INTERCEPT_REPLACE, k=1), 0.5),
    ("entangle_ancilla", EveStrategy(tag=ENTANGLE_ANCILLA, k=1), 0.5),
)


class OpTime(NamedTuple):
    """Seconds one op took: CPU time of this process, and wall-clock time."""

    cpu: float
    wall: float


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


class Workload:
    """Seeded op stream of one workload plus the checks on its outputs."""

    name = ""

    def __init__(self, seed: int, trials: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.trials = trials  # trials per op; a config is one trial
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_ops = 0
        self.fingerprint: dict = {}

    def cycle(self) -> list:
        """Inputs of the next pass over every shape of the workload."""
        raise NotImplementedError

    def warmup_input(self):
        return self.cycle()[0]

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, result) -> str | None:
        """Record one op's statistics; return why it failed, or None."""
        raise NotImplementedError

    def gate(self) -> list[str]:
        """Run-level checks against exact values; returns the failures."""
        return []

    def execute(self, inp, tracer=None) -> OpTime | None:
        """Run and check one op; returns its times, or None if it raised."""
        self.attempted += 1
        try:
            with tracer.op(self.trials) if tracer else nullcontext():
                start = OpTime(time.process_time(), time.perf_counter())
                result = self.run(inp)
                elapsed = OpTime(time.process_time() - start.cpu, time.perf_counter() - start.wall)
        except Exception as exc:  # noqa: BLE001 - a raising op counts as failed
            self._fail(f"op {self.attempted} raised {exc!r}")
            return None
        reason = self.check(inp, result)
        if reason is not None:
            self._fail(f"op {self.attempted}: {reason}")
        return elapsed

    def _fail(self, reason: str) -> None:
        self.failed_ops += 1
        if len(self.failures) < 20:
            self.failures.append(reason)

    def _fingerprinting(self) -> bool:
        # op 1 is the warm-up op of set-up; the prefix starts after it
        return 1 < self.attempted <= 1 + FINGERPRINT_OPS

    def _add(self, key: str, value) -> None:
        if self._fingerprinting():
            self.fingerprint[key] = self.fingerprint.get(key, 0) + value


class _ProtocolWorkload(Workload):
    """Shared checks of the two detection_experiment workloads.

    detection_experiment does not return what the agents recovered, so each
    op's check also runs its scenario once more through run_protocol, at the
    scenario's own seed, and compares the recovered secrets with the truth
    whenever that run passes validation. The rerun is not timed.
    """

    def __init__(self, seed: int) -> None:
        super().__init__(seed, TRIALS_PER_OP)
        self.trials_run = 0
        self.aborts = 0

    def run(self, scenario):
        return analysis.detection_experiment(scenario, self.trials)

    def check(self, scenario, stats) -> str | None:
        transcript = protocol.run_protocol(scenario)
        self.trials_run += stats.trials
        self.aborts += stats.aborts
        self._add("ops", 1)
        self._add("aborts", stats.aborts)
        self._add("decoy_errors", stats.all_errors)
        self._add("attacked_errors", stats.attacked_errors)
        self._add("eve_correct", stats.eve_correct)
        if stats.trials != self.trials:
            return f"{stats.trials} trials reported for {self.trials} run"
        if not transcript.aborted and transcript.recovered != scenario.secrets:
            return "a passing trial recovered a wrong secret"
        if stats.secrecy_violations:
            return f"{stats.secrecy_violations} transcript secrecy violations"
        return None


class HonestBroadcast(_ProtocolWorkload):
    """n=8, seven 4-bit secrets (m=28), d=m, no Eve, noise_p=0.02."""

    name = "honest_broadcast"

    def cycle(self) -> list:
        secrets = tuple(BitVector(int(v), 4) for v in self.rng.integers(0, 16, size=7))
        return [Scenario(n=8, secrets=secrets, noise_p=0.02, seed=_seed(self.rng))]

    def check(self, scenario, stats) -> str | None:
        reason = super().check(scenario, stats)
        if reason is None and stats.aborts:
            reason = f"{stats.aborts} honest trials aborted"
        return reason


class AttackDetect(_ProtocolWorkload):
    """The four acceptance attack shapes: n=3, d=200, threshold 1/8."""

    name = "attack_detect"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.attacked = {label: [0, 0] for label, _eve, _rate in ATTACKS}

    def _scenario(self, eve: EveStrategy) -> Scenario:
        secrets = tuple(BitVector(int(v), 3) for v in self.rng.integers(0, 8, size=2))
        return Scenario(n=3, secrets=secrets, d=200, eve=eve, seed=_seed(self.rng))

    def cycle(self) -> list:
        order = self.rng.permutation(len(ATTACKS))
        return [self._scenario(ATTACKS[i][1]) for i in order]

    def warmup_input(self):
        # a fixed shape keeps set-up time independent of the seed
        return self._scenario(ATTACKS[0][1])

    def check(self, scenario, stats) -> str | None:
        label = next(label for label, eve, _rate in ATTACKS if eve == scenario.eve)
        self.attacked[label][0] += stats.attacked_errors
        self.attacked[label][1] += stats.attacked_checks
        return super().check(scenario, stats)

    def gate(self) -> list[str]:
        failures = []
        abort_rate = self.aborts / self.trials_run
        if abort_rate < 0.99:
            failures.append(f"abort rate {abort_rate:.4f} < 0.99")
        for label, _eve, target in ATTACKS:
            errors, checks = self.attacked[label]
            center, radius = analysis.wilson_interval(errors, checks, z=WILSON_Z)
            if not abs(center - target) <= radius:
                failures.append(
                    f"{label}: attacked error rate {errors}/{checks} is outside "
                    f"{center:.4f} +/- {radius:.4f} of exact {target}"
                )
        return failures


class OracleTriangle(Workload):
    """joint vs factorized oracle plus sampler checks, n*m <= 20."""

    name = "oracle_triangle"
    # criterion 3's range (2 <= n <= 12) extended to the joint-oracle cap
    SHAPES = tuple(
        (n, m) for n in range(2, 13) for m in range(1, analysis.JOINT_ORACLE_QUBIT_CAP // n + 1)
    )

    def __init__(self, seed: int) -> None:
        super().__init__(seed, 1)
        self.pvalues: list[float] = []

    def _config(self, n: int, m: int) -> tuple:
        payload = BitVector(int(self.rng.integers(0, 1 << m)), m)
        return (payload, n, _seed(self.rng))

    def cycle(self) -> list:
        order = self.rng.permutation(len(self.SHAPES))
        return [self._config(*self.SHAPES[i]) for i in order]

    def warmup_input(self):
        # a fixed shape keeps set-up time independent of the seed
        return self._config(4, 5)

    def run(self, inp):
        payload, n, seed = inp
        joint = analysis.joint_oracle(payload, n)
        factorized = analysis.factorized_oracle(payload, n)
        keys = analysis.analytic_sample_keys(payload, n, np.random.default_rng(seed), ORACLE_SAMPLES)
        violations = analysis.support_violations(joint, keys)
        pvalue = analysis.sample_pvalue(joint, keys)
        return joint, factorized, violations, pvalue

    def check(self, inp, result) -> str | None:
        payload, n, _seed_ = inp
        joint, factorized, violations, pvalue = result
        self.pvalues.append(pvalue)
        if self._fingerprinting():
            self.fingerprint.setdefault("support_sizes", []).append(len(joint.entries))
        if joint.support() != factorized.support():
            return f"n={n} payload={payload}: joint and factorized supports differ"
        worst = max(abs(p - factorized.entries[k]) for k, p in joint.entries.items())
        if not worst <= ORACLE_TOLERANCE:
            return f"n={n} payload={payload}: max |dp| {worst:.3e} > {ORACLE_TOLERANCE}"
        if violations:
            return f"n={n} payload={payload}: {violations} samples off the support"
        return None

    def gate(self) -> list[str]:
        floor = CHI_SQUARE_RUN_FLOOR / len(self.pvalues)
        low = min(self.pvalues)
        if not low > floor:
            return [f"min chi-square p {low:.3e} <= split floor {floor:.3e}"]
        return []


WORKLOADS = {w.name: w for w in (HonestBroadcast, AttackDetect, OracleTriangle)}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
