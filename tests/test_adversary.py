import math

import numpy as np
import pytest

from ghzcast.adversary import (
    ALWAYS_COMPUTATIONAL,
    ENTANGLE_ANCILLA,
    INTERCEPT_REPLACE,
    MEASURE_RESEND,
    RANDOM_BASIS,
    EveStrategy,
    _coins_then_uniform,
    attack_tuple,
)
from ghzcast.bitvec import BitVector
from ghzcast.protocol import Scenario, execute_run
from ghzcast.statevec import hadamard_product_rows, measure_rows, prepare_ghz


class TestStrategyValidation:
    def test_default_is_inactive(self):
        assert not EveStrategy().active

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            EveStrategy(tag="siphon")

    def test_basis_policy_rules(self):
        with pytest.raises(ValueError):
            EveStrategy(tag=MEASURE_RESEND)  # needs a policy
        with pytest.raises(ValueError):
            EveStrategy(tag=INTERCEPT_REPLACE, basis_policy=RANDOM_BASIS)
        EveStrategy(tag=MEASURE_RESEND, basis_policy=ALWAYS_COMPUTATIONAL)

    def test_target_resolution(self):
        eve = EveStrategy(tag=INTERCEPT_REPLACE, k=2)
        assert eve.resolved_targets(4) == (0, 1)
        eve = EveStrategy(tag=INTERCEPT_REPLACE, k=2, targets=(1, 2))
        assert eve.resolved_targets(4) == (1, 2)

    def test_target_guards(self):
        with pytest.raises(ValueError):
            EveStrategy(tag=ENTANGLE_ANCILLA, k=2, targets=(0,)).resolved_targets(4)
        with pytest.raises(ValueError):
            EveStrategy(tag=ENTANGLE_ANCILLA, k=2, targets=(0, 0)).resolved_targets(4)
        with pytest.raises(ValueError):
            # the broker slot n-1 is never transmitted
            EveStrategy(tag=ENTANGLE_ANCILLA, k=1, targets=(2,)).resolved_targets(3)
        with pytest.raises(ValueError):
            EveStrategy(tag=ENTANGLE_ANCILLA, k=3).validate_for(3)

    def test_inactive_attack_rejected(self, rng):
        with pytest.raises(ValueError):
            attack_tuple(EveStrategy(), *ghz_stream(3), [rng])


def ghz_stream(n, tuples=1):
    """A stream of GHZ tuples: one distinct state, indexed by every tuple."""
    return prepare_ghz(n), np.zeros(tuples, dtype=np.intp)


class TestAttackStates:
    def test_measure_resend_keeps_width(self, rng):
        eve = EveStrategy(tag=MEASURE_RESEND, basis_policy=ALWAYS_COMPUTATIONAL)
        states, index, record = attack_tuple(eve, *ghz_stream(3, tuples=4), [rng])
        assert states[index].shape == (4, 8)
        assert record.targets == (0,)
        assert record.hadamard.shape == record.outcomes.shape == (4, 1)
        assert record.hadamard.dtype == bool and not record.hadamard.any()
        assert set(record.outcomes.ravel()) <= {0, 1}

    def test_measure_resend_collapses_ghz_computationally(self, rng):
        eve = EveStrategy(tag=MEASURE_RESEND, basis_policy=ALWAYS_COMPUTATIONAL)
        states, index, record = attack_tuple(eve, *ghz_stream(3, tuples=20), [rng])
        # one collapsed state per outcome she read
        assert len(states) == len(set(record.outcomes[:, 0].tolist()))
        for row, c in zip(states[index], record.outcomes[:, 0]):
            # GHZ collapses to the all-c product state
            assert abs(row[c * 7]) == pytest.approx(1.0)

    def test_random_basis_uses_both(self):
        eve = EveStrategy(tag=MEASURE_RESEND, basis_policy=RANDOM_BASIS)
        _, _, record = attack_tuple(eve, *ghz_stream(3, tuples=50), [np.random.default_rng(4)])
        assert set(record.hadamard[:, 0].tolist()) == {False, True}
        # the mask is Eve's coins as drawn
        coins, _ = _coins_then_uniform(np.random.default_rng(4), 50, 1)
        assert record.hadamard.dtype == bool and np.array_equal(record.hadamard, coins)

    def test_intercept_replace_structure(self, rng):
        eve = EveStrategy(tag=INTERCEPT_REPLACE, k=2)
        states, index, _ = attack_tuple(eve, *ghz_stream(3), [rng])
        assert states.shape == (1, 64) and index.tolist() == [0]

    def test_intercept_replace_forwards_fresh_members(self, rng):
        # the forwarded replacement qubits read uniform in the Hadamard basis
        eve = EveStrategy(tag=INTERCEPT_REPLACE, k=1)
        trials = 400
        plus = hadamard_product_rows([(0, 0, 0)])
        states, index, _ = attack_tuple(eve, plus, np.zeros(trials, dtype=np.intp), [rng])
        bits, _, _ = measure_rows(states, index, (0,), True, rng.random(trials))
        assert abs(bits.mean() - 0.5) < 0.07

    def test_entangle_ancilla_extends_ghz(self, rng):
        eve = EveStrategy(tag=ENTANGLE_ANCILLA, k=1)
        batch, _, _ = attack_tuple(eve, *ghz_stream(3), [rng])
        assert batch.shape == (1, 16)
        # CNOT from a GHZ member onto |0> grows the GHZ by one qubit
        expect = np.zeros(16)
        expect[0] = expect[15] = math.sqrt(0.5)
        assert np.allclose(batch[0], expect)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("leftover", [False, True])
def test_random_basis_draws_match_a_per_tuple_loop(k, leftover):
    # the random-basis attack draws, per tuple, k basis coins and then the
    # sample draw; it makes those draws in one call
    loop_rng, batch_rng = np.random.default_rng(11), np.random.default_rng(11)
    if leftover:  # a 32-bit half of the generator's last output is pending
        loop_rng.integers(0, 2)
        batch_rng.integers(0, 2)
    tuples = 7
    coins = np.empty((tuples, k), dtype=bool)
    u = np.empty(tuples)
    for t in range(tuples):
        for j in range(k):
            coins[t, j] = loop_rng.integers(0, 2)
        u[t] = loop_rng.random()
    got_coins, got_u = _coins_then_uniform(batch_rng, tuples, k)
    assert np.array_equal(got_coins, coins) and np.array_equal(got_u, u)
    # and the generator continues where the loop would leave it
    tails = [
        (r.integers(0, 2, size=3).tolist(), r.random(), r.integers(0, 2))
        for r in (loop_rng, batch_rng)
    ]
    assert tails[0] == tails[1]


def _rates(secrets, eve, trials, d, n=3, seed=5):
    from ghzcast.analysis import detection_experiment

    sc = Scenario(n=n, secrets=secrets, d=d, eve=eve, seed=seed)
    return detection_experiment(sc, trials)


class TestDisturbanceRates:
    def test_measure_resend_computational_half(self, example_secrets):
        eve = EveStrategy(tag=MEASURE_RESEND, basis_policy=ALWAYS_COMPUTATIONAL)
        st = _rates(example_secrets, eve, trials=400, d=10)
        assert abs(st.attacked_error_rate - 0.5) < 0.03

    def test_measure_resend_random_quarter(self, example_secrets):
        eve = EveStrategy(tag=MEASURE_RESEND, basis_policy=RANDOM_BASIS)
        st = _rates(example_secrets, eve, trials=400, d=10)
        assert abs(st.attacked_error_rate - 0.25) < 0.03

    def test_entangle_ancilla_half(self, example_secrets):
        eve = EveStrategy(tag=ENTANGLE_ANCILLA, k=1)
        st = _rates(example_secrets, eve, trials=400, d=10)
        assert abs(st.attacked_error_rate - 0.5) < 0.03

    def test_intercept_replace_per_tuple(self, example_secrets):
        for k, expect in ((1, 0.5), (2, 0.75)):
            eve = EveStrategy(tag=INTERCEPT_REPLACE, k=k)
            st = _rates(example_secrets, eve, trials=400, d=10)
            assert abs(st.tuple_error_rate - expect) < 0.035, k


class TestPostprocess:
    def test_aborted_run_guesses_are_shaped(self, example_secrets):
        eve = EveStrategy(tag=MEASURE_RESEND, basis_policy=ALWAYS_COMPUTATIONAL)
        outcome = execute_run(
            Scenario(n=3, secrets=example_secrets, d=200, eve=eve, seed=1)
        )
        assert outcome.transcript.aborted
        guesses = outcome.eve_guesses()
        assert [len(g) for g in guesses] == [3, 3]

    def test_computational_measurement_learns_nothing(self, example_secrets):
        # with no decoys every run completes, but computational outcomes are
        # branch labels, independent of the embedded payload
        eve = EveStrategy(tag=MEASURE_RESEND, basis_policy=ALWAYS_COMPUTATIONAL)
        correct = bits = 0
        for seed in range(300):
            outcome = execute_run(
                Scenario(n=3, secrets=example_secrets, d=0, eve=eve, seed=seed)
            )
            assert not outcome.transcript.aborted
            for guess, truth in zip(outcome.eve_guesses(), example_secrets):
                bits += len(truth)
                correct += sum(guess.bit(j) == truth.bit(j) for j in range(len(truth)))
        assert abs(correct / bits - 0.5) < 0.04

    def test_hadamard_resend_leaks_completed_runs(self, example_secrets):
        # qubits Eve happened to measure in the Hadamard basis survive
        # decryption unchanged, so without decoys she reads those payload
        # bits off the public exchange: 3/4 on the attacked segment
        eve = EveStrategy(tag=MEASURE_RESEND, basis_policy=RANDOM_BASIS)
        correct = [0, 0]
        bits = [0, 0]
        for seed in range(600):
            outcome = execute_run(
                Scenario(n=3, secrets=example_secrets, d=0, eve=eve, seed=seed)
            )
            for t, (guess, truth) in enumerate(zip(outcome.eve_guesses(), example_secrets)):
                bits[t] += len(truth)
                correct[t] += sum(guess.bit(j) == truth.bit(j) for j in range(len(truth)))
        assert abs(correct[0] / bits[0] - 0.75) < 0.05   # attacked segment
        assert abs(correct[1] / bits[1] - 0.5) < 0.05    # untouched segment

    @pytest.mark.parametrize("d, threshold_fraction", [(0, 0.125), (5, 0.9)])
    def test_hadamard_resent_bits_are_guessed_exactly(self, d, threshold_fraction):
        # a payload bit whose owner's qubit Eve resent in the Hadamard basis
        # survives decryption unchanged. If she measured every attacked
        # qubit of its tuple in that basis, the registers still fold onto the
        # payload, so in a passing run she reads the bit off the public
        # exchange without error. Agent 1 is never attacked.
        secrets = (BitVector.from_text("10"), BitVector.from_text("1"), BitVector.from_text("011"))
        eve = EveStrategy(tag=MEASURE_RESEND, basis_policy=RANDOM_BASIS, k=2, targets=(0, 2))
        passed = leaked = 0
        for seed in range(40):
            outcome = execute_run(
                Scenario(
                    n=4,
                    secrets=secrets,
                    d=d,
                    eve=eve,
                    threshold_fraction=threshold_fraction,
                    seed=seed,
                )
            )
            transcript = outcome.transcript
            if transcript.aborted:
                continue
            passed += 1
            decoys = set(transcript.decoy_positions)
            info = [p for p in range(transcript.stream_length) if p not in decoys]
            guesses = outcome.eve_guesses()
            j = 0
            for owner, secret in enumerate(secrets):
                for i in range(len(secret)):
                    if owner in eve.targets and outcome.eve_record.hadamard[info[j]].all():
                        leaked += 1
                        assert guesses[owner].bit(i) == secret.bit(i)
                    j += 1
        assert passed >= 30
        assert leaked >= passed // 2

    def test_delayed_ancilla_parity_is_fair(self, example_secrets):
        # the ancilla parity Eve finally measures cancels against the same
        # parity already baked into the public registers
        eve = EveStrategy(tag=ENTANGLE_ANCILLA, k=1)
        correct = bits = 0
        for seed in range(300):
            outcome = execute_run(
                Scenario(n=3, secrets=example_secrets, d=0, eve=eve, seed=seed)
            )
            for guess, truth in zip(outcome.eve_guesses(), example_secrets):
                bits += len(truth)
                correct += sum(guess.bit(j) == truth.bit(j) for j in range(len(truth)))
        assert abs(correct / bits - 0.5) < 0.04

    def test_full_replacement_breaks_recovery(self, example_secrets):
        # swapping out every transmitted qubit decouples the agents from the
        # broker entirely: recovery fails and Eve still learns nothing
        eve = EveStrategy(tag=INTERCEPT_REPLACE, k=2)
        perfect = 0
        correct = bits = 0
        for seed in range(200):
            outcome = execute_run(
                Scenario(n=3, secrets=example_secrets, d=0, eve=eve, seed=seed)
            )
            assert not outcome.transcript.aborted
            perfect += outcome.transcript.recovered == example_secrets
            for guess, truth in zip(outcome.eve_guesses(), example_secrets):
                bits += len(truth)
                correct += sum(guess.bit(j) == truth.bit(j) for j in range(len(truth)))
        assert perfect < 10
        assert abs(correct / bits - 0.5) < 0.05
