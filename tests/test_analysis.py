import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzcast import protocol
from ghzcast.adversary import (
    ALWAYS_COMPUTATIONAL,
    ENTANGLE_ANCILLA,
    INTERCEPT_REPLACE,
    MEASURE_RESEND,
    RANDOM_BASIS,
    EveStrategy,
)
from ghzcast.analysis import (
    JOINT_ORACLE_QUBIT_CAP,
    OutcomeDistribution,
    analytic_sample_keys,
    detection_experiment,
    explicit_kickback_oracle,
    factorized_oracle,
    joint_oracle,
    sample_pvalue,
    support_violations,
    wilson_interval,
)
from ghzcast.bitvec import BitVector, concat_secrets, xor_all
from ghzcast.protocol import STACK_ENTRIES, Registers, Scenario, execute_run, run_trials


def fold(registers: Registers) -> BitVector:
    return xor_all([registers.broker, *registers.agents])


class TestOutcomeDistribution:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            OutcomeDistribution(n=2, m=1, keys=np.array([0]), probs=np.array([0.5]))

    def test_joint_keys_are_strictly_ascending(self):
        dist = joint_oracle(BitVector.from_text("0110"), 3)
        assert dist.keys.dtype == np.int64 and dist.probs.dtype == np.float64
        assert np.all(np.diff(dist.keys) > 0)

    @pytest.mark.parametrize("oracle", [joint_oracle, factorized_oracle])
    def test_support_is_a_sorted_list_of_python_ints(self, oracle):
        dist = oracle(BitVector.from_text("101"), 3)
        support = dist.support()
        assert type(support) is list
        assert all(type(key) is int for key in support)
        assert support == sorted(dist.keys.tolist())

    def test_entries_are_built_once(self):
        dist = factorized_oracle(BitVector.from_text("11"), 3)
        assert dist.entries is dist.entries
        assert list(dist.entries) == dist.keys.tolist()

    def test_probability_is_zero_off_the_support(self):
        # payload 11 at n=2: the broker block is the agent block XOR 11
        dist = joint_oracle(BitVector.from_text("11"), 2)
        assert dist.support() == [3, 6, 9, 12]
        queries = [*range(20), 1 << 40]
        expected = [0.25 if key in (3, 6, 9, 12) else 0.0 for key in queries]
        assert [dist.probability(key) for key in queries] == expected
        assert all(type(dist.probability(key)) is float for key in queries)
        assert dist.probabilities(np.array(queries)).tolist() == expected

    def test_equality_compares_the_distributions(self):
        payload = BitVector.from_text("101")
        dist = joint_oracle(payload, 3)
        assert dist == explicit_kickback_oracle(payload, 3)[0]
        assert dist != joint_oracle(BitVector.from_text("100"), 3)
        assert dist != joint_oracle(payload, 2)
        # key order does not matter, every probability does
        order = np.random.default_rng(3).permutation(dist.keys.size)
        assert dist == OutcomeDistribution(3, 3, dist.keys[order], dist.probs[order])
        nudged = dist.probs.copy()
        nudged[[0, 1]] += (1e-15, -1e-15)
        assert dist != OutcomeDistribution(3, 3, dist.keys, nudged)
        assert dist != "101"

    def test_key_round_trip(self):
        dist = joint_oracle(BitVector.from_text("01"), 3)
        for key in dist.support():
            registers = dist.key_to_registers(key)
            assert dist.key_from_registers(registers) == key

    def test_render_key_is_broker_first(self):
        dist = joint_oracle(BitVector.from_text("01"), 3)
        registers = Registers(
            broker=BitVector.from_text("11"),
            agents=(BitVector.from_text("00"), BitVector.from_text("10")),
        )
        key = dist.key_from_registers(registers)
        assert dist.render_keys([key]) == ["11 10 00"]
        # the whole support renders as the registers' own text
        texts = dist.render_keys(dist.keys)
        for key, text in zip(dist.keys.tolist(), texts):
            r = dist.key_to_registers(key)
            assert text == " ".join(str(v) for v in (r.broker, *reversed(r.agents)))
        assert len(texts) == dist.keys.size
        assert dist.render_keys([]) == []


class TestJointOracle:
    def test_single_agent_single_bit(self):
        dist = joint_oracle(BitVector.from_text("1"), 2)
        # broker and agent registers must disagree, both splits equally likely
        assert dist.support() == [1, 2]
        assert dist.probability(1) == pytest.approx(0.5, abs=1e-12)
        assert dist.probability(2) == pytest.approx(0.5, abs=1e-12)

    def test_single_agent_zero_bit(self):
        dist = joint_oracle(BitVector.from_text("0"), 2)
        assert dist.support() == [0, 3]

    def test_two_agents_zero_payload(self):
        dist = joint_oracle(BitVector.from_text("00"), 3)
        assert len(dist.support()) == 16
        for key in dist.support():
            assert dist.probability(key) == pytest.approx(1 / 16, abs=1e-12)
            assert fold(dist.key_to_registers(key)).value == 0

    @given(st.integers(2, 4), st.data())
    @settings(max_examples=20, deadline=None)
    def test_support_is_uniform_over_payload_fold(self, n, data):
        m = data.draw(st.integers(1, 12 // n))
        payload = BitVector(data.draw(st.integers(0, (1 << m) - 1)), m)
        dist = joint_oracle(payload, n)
        free = (n - 1) * m
        assert len(dist.support()) == 1 << free
        for key in dist.support():
            assert dist.probability(key) == pytest.approx(0.5**free, abs=1e-12)
            assert fold(dist.key_to_registers(key)) == payload

    def test_qubit_cap(self):
        with pytest.raises(ValueError):
            joint_oracle(BitVector.zeros(7), 3)

    @pytest.mark.parametrize(
        "n,m",
        [(n, m) for n in range(2, 13) for m in range(1, JOINT_ORACLE_QUBIT_CAP // n + 1)],
    )
    def test_probabilities_are_exact_dyadics(self, n, m):
        payload = BitVector((0b1011011011 * n) % (1 << m), m)
        dist = joint_oracle(payload, n)
        assert len(dist.entries) == 1 << ((n - 1) * m)
        assert set(dist.entries.values()) == {2.0 ** -((n - 1) * m)}


@pytest.mark.parametrize(
    "oracle",
    [
        joint_oracle,
        explicit_kickback_oracle,
        factorized_oracle,
        lambda payload, n: analytic_sample_keys(payload, n, np.random.default_rng(0), 10),
    ],
    ids=["joint", "explicit_kickback", "factorized", "analytic_sample_keys"],
)
@pytest.mark.parametrize("n", [1, 0])
def test_every_oracle_needs_two_parties(oracle, n):
    with pytest.raises(ValueError, match="two parties"):
        oracle(BitVector.from_text("1"), n)


class TestOracleAgreement:
    CONFIGS = (("101", 2), ("01", 3), ("11", 4), ("1", 5))

    @pytest.mark.parametrize("text,n", CONFIGS)
    def test_factorized_matches_joint(self, text, n):
        payload = BitVector.from_text(text)
        a = joint_oracle(payload, n)
        b = factorized_oracle(payload, n)
        assert a.support() == b.support()
        worst = max(abs(a.probability(k) - b.probability(k)) for k in a.support())
        assert worst < 1e-12

    @pytest.mark.parametrize("text,n", (("101", 2), ("01", 3), ("1101", 4), ("1", 12)))
    def test_explicit_output_qubit_matches_joint(self, text, n):
        payload = BitVector.from_text(text)
        a = joint_oracle(payload, n)
        b, deviations = explicit_kickback_oracle(payload, n)
        assert b.entries == a.entries
        # the output qubit stays exactly separable in the minus state at every stage
        assert deviations == {"initial": 0.0, "embedded": 0.0, "decrypted": 0.0}

    def test_factorized_caps(self):
        with pytest.raises(ValueError):
            factorized_oracle(BitVector.zeros(1), 13)
        with pytest.raises(ValueError):
            factorized_oracle(BitVector.zeros(21), 2)
        with pytest.raises(ValueError, match="materialize"):
            factorized_oracle(BitVector.zeros(7), 4)


class TestAnalyticSample:
    def test_fold_always_equals_payload(self, rng):
        payload = BitVector.from_text("0110")
        dist = joint_oracle(payload, 3)
        for key in analytic_sample_keys(payload, 3, rng, 200).tolist():
            registers = dist.key_to_registers(key)
            assert fold(registers) == payload
            assert registers.broker.length == 4
            assert len(registers.agents) == 2

    def test_keys_live_on_the_joint_support(self, rng):
        payload = BitVector.from_text("01")
        dist = joint_oracle(payload, 3)
        keys = analytic_sample_keys(payload, 3, rng, 5000)
        assert keys.dtype == np.uint64
        assert support_violations(dist, keys) == 0
        assert sample_pvalue(dist, keys) > 0.001

    def test_wrong_payload_is_fully_off_support(self, rng):
        dist = joint_oracle(BitVector.from_text("01"), 3)
        keys = analytic_sample_keys(BitVector.from_text("10"), 3, rng, 50)
        assert support_violations(dist, keys) == 50

    def test_keys_above_the_register_bits_are_violations(self, rng):
        payload = BitVector.from_text("01")
        dist = joint_oracle(payload, 3)
        keys = analytic_sample_keys(payload, 3, rng, 40)
        keys[::4] |= np.uint64(1) << np.uint64(6)
        keys[1] |= np.uint64(1) << np.uint64(63)
        assert support_violations(dist, keys) == 11

    def test_degenerate_sample_fails_chi_square(self, rng):
        dist = joint_oracle(BitVector.from_text("01"), 3)
        keys = np.full(2000, dist.support()[0], dtype=np.uint64)
        assert sample_pvalue(dist, keys) < 1e-9

    def test_key_packing_cap(self, rng):
        with pytest.raises(ValueError):
            analytic_sample_keys(BitVector.zeros(13), 5, rng, 10)


def test_importing_ghzcast_leaves_scipy_stats_unloaded():
    """scipy.stats is imported by sample_pvalue alone, when first called."""
    root = Path(__file__).resolve().parent.parent
    code = "import sys, ghzcast; print('scipy.stats' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


class TestWilsonInterval:
    def test_balanced_counts(self):
        center, radius = wilson_interval(50, 100)
        assert center == pytest.approx(0.5, abs=1e-12)
        assert radius == pytest.approx(0.09617, abs=1e-5)

    def test_zero_successes_pin_the_lower_edge(self):
        center, radius = wilson_interval(0, 100)
        assert center == pytest.approx(radius, abs=1e-12)
        assert center == pytest.approx(0.018497, abs=1e-5)

    def test_full_successes_pin_the_upper_edge(self):
        center, radius = wilson_interval(100, 100)
        assert center + radius == pytest.approx(1.0, abs=1e-12)

    def test_no_trials(self):
        center, radius = wilson_interval(0, 0)
        assert math.isnan(center) and math.isnan(radius)

    def test_radius_shrinks_with_trials(self):
        small = wilson_interval(5, 10)[1]
        large = wilson_interval(500, 1000)[1]
        assert large < small


class TestDetectionExperiment:
    def test_needs_trials(self, example_secrets):
        with pytest.raises(ValueError):
            detection_experiment(Scenario(n=3, secrets=example_secrets), trials=0)

    def test_honest_runs_are_silent(self, example_secrets):
        stats = detection_experiment(
            Scenario(n=3, secrets=example_secrets, d=6, seed=5), trials=60
        )
        assert stats.trials == 60
        assert stats.aborts == 0 and stats.abort_rate == 0.0
        assert stats.all_checks == 60 * 6 * 2
        assert stats.all_errors == 0 and stats.check_error_rate == 0.0
        assert stats.attacked_checks == 0
        assert stats.attacked_error_rate is None
        # no interception means every guessed bit is a blind coin flip
        assert stats.eve_bits == 60 * 6
        assert stats.eve_accuracy == pytest.approx(0.5, abs=0.1)
        assert stats.secrecy_violations == 0
        assert stats.rows is None

    def test_row_collection(self, example_secrets):
        stats = detection_experiment(
            Scenario(n=3, secrets=example_secrets, d=6, seed=5),
            trials=10,
            collect_rows=True,
        )
        assert stats.rows is not None and len(stats.rows) == 10
        assert [r.trial for r in stats.rows] == list(range(10))
        assert all(r.verdict == "pass" and r.errors == 0 for r in stats.rows)
        assert all(r.decoy_checks == 12 for r in stats.rows)

    def test_computational_interception_statistics(self, example_secrets):
        eve = EveStrategy(tag=MEASURE_RESEND, basis_policy=ALWAYS_COMPUTATIONAL)
        stats = detection_experiment(
            Scenario(n=3, secrets=example_secrets, d=20, eve=eve, seed=9), trials=50
        )
        # expected errors per run sit at twice the abort threshold
        assert stats.aborts >= 45
        assert stats.attacked_checks == 50 * 20
        assert stats.attacked_tuples == 50 * 20
        assert stats.attacked_error_rate == pytest.approx(0.5, abs=0.05)
        # aborted or not, the guess stream covers every payload bit
        assert stats.eve_bits == 50 * 6
        assert stats.eve_accuracy == pytest.approx(0.5, abs=0.1)

    def test_determinism(self, example_secrets):
        eve = EveStrategy(tag=MEASURE_RESEND, basis_policy=ALWAYS_COMPUTATIONAL)
        sc = Scenario(n=3, secrets=example_secrets, d=12, eve=eve, seed=9)
        a = detection_experiment(sc, trials=20)
        b = detection_experiment(sc, trials=20)
        assert a == b

    def test_seeds_are_drawn_as_the_stacks_need_them(self, example_secrets, monkeypatch):
        # a million seeds held at once take at least 8 MB before the first
        # stack runs; drawn lazily they take next to nothing
        class FirstStack(Exception):
            pass

        def first_stack(scenario, seeds, *invariants):
            raise FirstStack(tracemalloc.get_traced_memory()[1])

        monkeypatch.setattr(protocol, "_run_stack", first_stack)
        tracemalloc.start()
        try:
            with pytest.raises(FirstStack) as stop:
                detection_experiment(Scenario(n=3, secrets=example_secrets), 10**6)
        finally:
            tracemalloc.stop()
        assert stop.value.args[0] < 1 << 20


EXAMPLE = (BitVector.from_text("010"), BitVector.from_text("101"))
BROADCAST = tuple(BitVector(v, 4) for v in (3, 12, 5, 10, 6, 9, 15))
STACKED_SCENARIOS = {
    "honest_n8": Scenario(n=8, secrets=BROADCAST, noise_p=0.02, seed=8),
    "measure_resend/computational": Scenario(
        n=3,
        secrets=EXAMPLE,
        d=200,
        eve=EveStrategy(tag=MEASURE_RESEND, basis_policy=ALWAYS_COMPUTATIONAL, k=1),
        seed=101,
    ),
    "measure_resend/random": Scenario(
        n=3,
        secrets=EXAMPLE,
        d=200,
        eve=EveStrategy(tag=MEASURE_RESEND, basis_policy=RANDOM_BASIS, k=2),
        seed=102,
    ),
    "intercept_replace": Scenario(
        n=3, secrets=EXAMPLE, d=200, eve=EveStrategy(tag=INTERCEPT_REPLACE, k=1), seed=103
    ),
    "entangle_ancilla": Scenario(
        n=3, secrets=EXAMPLE, d=200, eve=EveStrategy(tag=ENTANGLE_ANCILLA, k=1), seed=104
    ),
    "ancilla_d0": Scenario(
        n=3, secrets=EXAMPLE, d=0, eve=EveStrategy(tag=ENTANGLE_ANCILLA, k=1), seed=9
    ),
    # without decoys every run passes, so Eve's reconstruction takes its
    # measure-resend and intercept-replace paths on every run
    "measure_resend/random_d0": Scenario(
        n=3,
        secrets=EXAMPLE,
        d=0,
        eve=EveStrategy(tag=MEASURE_RESEND, basis_policy=RANDOM_BASIS, k=2),
        seed=10,
    ),
    "intercept_replace_d0": Scenario(
        n=3, secrets=EXAMPLE, d=0, eve=EveStrategy(tag=INTERCEPT_REPLACE, k=1), seed=11
    ),
}

ATTACKS = (
    EveStrategy(),
    EveStrategy(tag=MEASURE_RESEND, basis_policy=ALWAYS_COMPUTATIONAL),
    EveStrategy(tag=MEASURE_RESEND, basis_policy=RANDOM_BASIS),
    EveStrategy(tag=INTERCEPT_REPLACE),
    EveStrategy(tag=ENTANGLE_ANCILLA),
)


@st.composite
def small_scenarios(draw):
    """n 2-5, secrets of 1-3 bits, d 0-6, no Eve or one of the four attacks
    on 1..n-1 slots, and thresholds loose and tight enough that some runs of
    a scenario pass while others abort."""
    n = draw(st.integers(2, 5))
    secret = st.integers(1, 3).flatmap(
        lambda width: st.integers(0, (1 << width) - 1).map(lambda v: BitVector(v, width))
    )
    eve = draw(st.sampled_from(ATTACKS))
    if eve.active:
        eve = replace(eve, k=draw(st.integers(1, n - 1)))
    return Scenario(
        n=n,
        secrets=tuple(draw(st.lists(secret, min_size=n - 1, max_size=n - 1))),
        d=draw(st.integers(0, 6)),
        eve=eve,
        noise_p=draw(st.sampled_from((0.0, 0.1))),
        threshold_fraction=draw(st.sampled_from((0.05, 0.2, 0.4))),
    )


class TestStackedRuns:
    """Runs simulated as one stack match the same runs made one at a time."""

    @pytest.mark.parametrize("name", sorted(STACKED_SCENARIOS))
    def test_experiment_is_the_aggregate_of_lone_runs(self, name):
        scenario = STACKED_SCENARIOS[name]
        per_stack = scenario.stack_runs(STACK_ENTRIES)
        trials = 2 * per_stack + 1
        assert per_stack > 1 and trials % per_stack

        seeds = np.random.default_rng(scenario.seed).integers(0, 2**63, size=trials).tolist()
        stacks = list(run_trials(scenario, seeds))
        assert [len(stack) for stack in stacks] == [per_stack, per_stack, 1]
        stacked = [outcome for stack in stacks for outcome in stack]
        alone = [execute_run(replace(scenario, seed=seed)) for seed in seeds]
        for a, b in zip(stacked, alone):
            assert a.transcript == b.transcript

        stats = detection_experiment(scenario, trials, collect_rows=True)
        targets = list(scenario.eve.resolved_targets(scenario.n)) if scenario.eve.active else []
        reports = [o.transcript.validation for o in alone]
        attacked = [r.wrong[:, targets] for r in reports]
        guesses = [o.eve_guesses() for o in alone]
        assert stats.aborts == sum(o.transcript.aborted for o in alone)
        assert stats.all_checks == sum(r.decoy_checks for r in reports)
        assert stats.all_errors == sum(r.errors for r in reports)
        assert stats.attacked_checks == sum(w.size for w in attacked)
        assert stats.attacked_errors == sum(int(w.sum()) for w in attacked)
        assert stats.attacked_tuples == (scenario.resolved_d * trials if targets else 0)
        assert stats.tuples_with_error == sum(int(w.any(axis=1).sum()) for w in attacked)
        assert stats.eve_correct == sum(
            g.bit(j) == s.bit(j)
            for run in guesses
            for g, s in zip(run, scenario.secrets)
            for j in range(len(s))
        )
        assert [(row.errors, row.verdict) for row in stats.rows] == [
            (r.errors, r.verdict) for r in reports
        ]

    @given(scenario=small_scenarios(), entries=st.integers(1, 1 << 20))
    @settings(max_examples=200, deadline=None)
    def test_a_stack_is_the_most_runs_within_the_bound(self, scenario, entries):
        runs = scenario.stack_runs(entries)
        assert runs == 1 or scenario.stack_entries(runs) <= entries
        assert scenario.stack_entries(runs + 1) > entries

    def test_stack_sizes(self):
        # the benchmark's honest n=8 op of 10 trials is one stack, and a
        # stream over the bound on its own is a stack of one run
        assert STACKED_SCENARIOS["honest_n8"].stack_runs(STACK_ENTRIES) >= 10
        wide = Scenario(n=12, secrets=(BitVector(1, 1),) * 11, d=200)
        assert wide.stream_amplitudes > STACK_ENTRIES
        assert wide.stack_runs(STACK_ENTRIES) == 1

    @given(scenario=small_scenarios(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_stacks_of_any_size_match_lone_runs(self, scenario, data):
        seeds = data.draw(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=7))
        per_stack = data.draw(st.integers(1, len(seeds)), label="runs per stack")
        with patch.object(protocol, "STACK_ENTRIES", scenario.stack_entries(per_stack)):
            stacks = list(run_trials(scenario, seeds))
        full, rest = divmod(len(seeds), per_stack)
        assert [len(stack) for stack in stacks] == [per_stack] * full + [rest] * (rest > 0)

        stacked = [outcome for stack in stacks for outcome in stack]
        alone = [execute_run(replace(scenario, seed=seed)) for seed in seeds]
        for a, b in zip(stacked, alone, strict=True):
            assert a.transcript == b.transcript
            assert a.eve_guesses() == b.eve_guesses()
