import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzcast.bitvec import BitVector
from ghzcast.statevec import (
    COMPUTATIONAL,
    HADAMARD,
    MAX_QUBITS,
    PureState,
    append_rows,
    apply_cnot,
    apply_hadamard,
    apply_phase_flip,
    check_rows,
    cnot_rows,
    distribution,
    ghz_layers,
    hadamard_rows,
    measure_all,
    measure_qubits,
    measure_rows,
    phase_flip_rows,
    prepare_basis,
    prepare_ghz,
    prepare_hadamard_product,
    sample_rows,
    states_equal,
    swap_qubits,
    swap_rows,
    tensor,
)

SQ2 = math.sqrt(0.5)


def amps(state):
    return state.amplitudes


class TestPreparation:
    def test_basis_states(self):
        assert amps(prepare_basis(BitVector.from_text("0")))[0] == 1.0
        assert amps(prepare_basis(BitVector.from_text("101")))[5] == 1.0
        assert amps(prepare_basis(BitVector.from_text("11")))[3] == 1.0

    def test_norm_guard(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]), 1)
        with pytest.raises(ValueError):
            PureState(np.zeros(4), 1)
        with pytest.raises(ValueError):
            PureState(np.zeros(1 << (MAX_QUBITS + 1)), MAX_QUBITS + 1)

    def test_plus_plus(self):
        st2 = prepare_hadamard_product((0, 0))
        assert np.allclose(amps(st2), [0.5, 0.5, 0.5, 0.5])

    def test_forced_signs(self):
        # qubit 1 is minus: sign flips whenever index bit 1 is set
        state = prepare_hadamard_product((0, 1, 0))
        expect = np.array([1, 1, -1, -1, 1, 1, -1, -1]) / (2 * math.sqrt(2))
        assert np.allclose(amps(state), expect)

    def test_minus_fraction_of_random_decoys(self):
        rng = np.random.default_rng(5)
        counts = np.zeros(4)
        draws = 10_000
        for _ in range(draws):
            signs = rng.integers(0, 2, size=4)
            counts += signs
        assert np.all(np.abs(counts / draws - 0.5) < 0.02)


class TestGates:
    def test_hadamard_on_zero(self):
        state = apply_hadamard(prepare_basis(BitVector.from_text("0")), 0)
        assert np.allclose(amps(state), [SQ2, SQ2])

    def test_hadamard_on_one(self):
        state = apply_hadamard(prepare_basis(BitVector.from_text("1")), 0)
        assert np.allclose(amps(state), [SQ2, -SQ2])

    def test_hadamard_involution(self):
        zero = prepare_basis(BitVector.from_text("0"))
        assert states_equal(apply_hadamard(apply_hadamard(zero, 0), 0), zero)

    def test_cnot_basis(self):
        # |10> means qubit 1 set; control=1 flips target=0 giving |11>
        state = apply_cnot(prepare_basis(BitVector.from_text("10")), 1, 0)
        assert amps(state)[3] == 1.0
        state = apply_cnot(prepare_basis(BitVector.from_text("00")), 1, 0)
        assert amps(state)[0] == 1.0

    def test_phase_kickback_identity(self):
        # control superposition, target minus: CNOT flips the control-1 sign
        # and leaves the target exactly separable
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=2)
        norm = math.hypot(a, b)
        a, b = a / norm, b / norm
        control = PureState(np.array([a, b], dtype=complex), 1)
        minus = prepare_hadamard_product((1,))
        state = apply_cnot(tensor(control, minus), control=0, target=1)
        expect = tensor(PureState(np.array([a, -b], dtype=complex), 1), minus)
        assert states_equal(state, expect, tol=1e-12)

    def test_phase_flip_equals_kickback(self):
        # Z on the control is the same map once the minus target is traced off
        ghz = prepare_ghz(3)
        flipped = apply_phase_flip(ghz, 2)
        expect = np.zeros(8, dtype=complex)
        expect[0] = SQ2
        expect[7] = -SQ2
        assert np.allclose(amps(flipped), expect)

    def test_gates_do_not_mutate(self):
        ghz = prepare_ghz(2)
        before = amps(ghz).copy()
        apply_phase_flip(ghz, 1)
        apply_hadamard(ghz, 0)
        apply_cnot(ghz, 0, 1)
        assert np.array_equal(amps(ghz), before)


class TestGhz:
    def test_n3_amplitudes(self):
        state = prepare_ghz(3)
        expect = np.zeros(8, dtype=complex)
        expect[0] = expect[7] = SQ2
        assert np.allclose(amps(state), expect)

    def test_n2_bell_pair(self):
        state = prepare_ghz(2)
        assert np.allclose(amps(state), [SQ2, 0, 0, SQ2])

    def test_topologies_agree(self):
        for n in range(2, 11):
            assert states_equal(
                prepare_ghz(n, "linear"), prepare_ghz(n, "log_depth"), tol=1e-12
            )

    def test_log_depth_layer_count(self):
        for n in range(2, 17):
            assert len(ghz_layers(n, "log_depth")) == math.ceil(math.log2(n))

    def test_linear_layer_count(self):
        assert len(ghz_layers(8, "linear")) == 7

    def test_unknown_topology(self):
        with pytest.raises(ValueError):
            ghz_layers(3, "star")


class TestDistribution:
    def test_ghz_computational(self):
        probs = distribution(prepare_ghz(3), [COMPUTATIONAL] * 3)
        expect = np.zeros(8)
        expect[0] = expect[7] = 0.5
        assert np.allclose(probs, expect)

    def test_ghz_hadamard_even_parity(self):
        probs = distribution(prepare_ghz(3), [HADAMARD] * 3)
        expect = np.zeros(8)
        expect[[0, 3, 5, 6]] = 0.25
        assert np.allclose(probs, expect)

    def test_flipped_ghz_hadamard_odd_parity(self):
        probs = distribution(apply_phase_flip(prepare_ghz(3), 2), [HADAMARD] * 3)
        expect = np.zeros(8)
        expect[[1, 2, 4, 7]] = 0.25
        assert np.allclose(probs, expect)

    def test_minus_computational(self):
        probs = distribution(prepare_hadamard_product((1,)), [COMPUTATIONAL])
        assert np.allclose(probs, [0.5, 0.5])

    def test_zero_computational(self):
        probs = distribution(prepare_basis(BitVector.from_text("0")), [COMPUTATIONAL])
        assert np.allclose(probs, [1.0, 0.0])


class TestMeasurement:
    def test_plus_in_hadamard_is_deterministic(self, rng):
        plus = prepare_hadamard_product((0,))
        for _ in range(20):
            outcome, _ = measure_all(plus, [HADAMARD], rng)
            assert outcome.value == 0

    def test_decoy_signs_recovered_exactly(self, rng):
        for _ in range(40):
            signs = tuple(int(b) for b in rng.integers(0, 2, size=3))
            state = prepare_hadamard_product(signs)
            bits, collapsed = measure_qubits(state, (0, 1, 2), (HADAMARD,) * 3, rng)
            assert bits == signs
            # a product state measured in its own basis is undisturbed
            assert states_equal(collapsed, state, tol=1e-12)

    def test_partial_measurement_collapses_ghz(self, rng):
        ghz = prepare_ghz(3)
        for _ in range(20):
            (first,), collapsed = measure_qubits(ghz, (1,), (COMPUTATIONAL,), rng)
            rest, _ = measure_qubits(collapsed, (0, 2), (COMPUTATIONAL,) * 2, rng)
            assert rest == (first, first)

    def test_hadamard_collapse_returns_physical_frame(self, rng):
        # measuring |0> in the Hadamard basis leaves a plus or minus state
        zero = prepare_basis(BitVector.from_text("0"))
        seen = set()
        for _ in range(30):
            (bit,), collapsed = measure_qubits(zero, (0,), (HADAMARD,), rng)
            seen.add(bit)
            assert states_equal(collapsed, prepare_hadamard_product((bit,)), tol=1e-12)
        assert seen == {0, 1}

    def test_ghz_hadamard_parity_even(self, rng):
        for n in (2, 3, 4, 5):
            ghz = prepare_ghz(n)
            for _ in range(60):
                bits, _ = measure_qubits(ghz, tuple(range(n)), (HADAMARD,) * n, rng)
                assert sum(bits) % 2 == 0

    def test_input_validation(self, rng):
        ghz = prepare_ghz(2)
        with pytest.raises(ValueError):
            measure_qubits(ghz, (0, 0), (HADAMARD, HADAMARD), rng)
        with pytest.raises(ValueError):
            measure_qubits(ghz, (0,), (HADAMARD, HADAMARD), rng)
        with pytest.raises(ValueError):
            measure_qubits(ghz, (5,), (HADAMARD,), rng)
        with pytest.raises(ValueError):
            measure_qubits(ghz, (0,), ("diagonal",), rng)


class TestCombinators:
    def test_tensor_places_extra_on_high_bits(self):
        one = prepare_basis(BitVector.from_text("1"))
        zero = prepare_basis(BitVector.from_text("0"))
        joint = tensor(zero, one)
        assert amps(joint)[2] == 1.0

    def test_swap_relabels(self):
        state = prepare_basis(BitVector.from_text("01"))
        swapped = swap_qubits(state, 0, 1)
        assert amps(swapped)[2] == 1.0
        assert states_equal(swap_qubits(swapped, 0, 1), state)

    def test_swap_same_is_identity(self):
        ghz = prepare_ghz(2)
        assert swap_qubits(ghz, 1, 1) is ghz


def random_batch(rng, rows, num_qubits):
    batch = rng.normal(size=(rows, 1 << num_qubits)) + 1j * rng.normal(size=(rows, 1 << num_qubits))
    return batch / np.linalg.norm(batch, axis=1, keepdims=True)


KERNEL_CASES = [
    (hadamard_rows, (1,)),
    (cnot_rows, (2, 0)),
    (phase_flip_rows, (3,)),
    (swap_rows, (0, 3)),
    (append_rows, (np.array([0.6, 0.8j]),)),
]


class TestBatchKernels:
    """Every row of a batch evolves exactly as it would alone."""

    @pytest.mark.parametrize("kernel, args", KERNEL_CASES)
    def test_gates_act_row_by_row(self, kernel, args):
        batch = random_batch(np.random.default_rng(1), 5, 4)
        before = batch.copy()
        out = kernel(batch, *args)
        assert np.array_equal(batch, before)
        for t in range(5):
            assert np.array_equal(out[t], kernel(batch[t : t + 1], *args)[0])

    def test_empty_batch(self):
        # a payload with no 1 bits embeds into no rows, a stream without
        # decoys validates none
        empty = np.zeros((0, 16), dtype=complex)
        for kernel, args in KERNEL_CASES:
            assert kernel(empty, *args).shape[0] == 0
        bits, collapsed = measure_rows(empty, (0, 1), (HADAMARD,) * 2, np.zeros(0))
        assert bits.shape == (0, 2) and collapsed.shape == (0, 16)

    def test_measurement_acts_row_by_row(self):
        rng = np.random.default_rng(2)
        batch = random_batch(rng, 8, 4)
        bases = np.where(rng.integers(0, 2, size=(8, 2)) == 1, HADAMARD, COMPUTATIONAL)
        u = rng.random(8)
        bits, collapsed = measure_rows(batch, (2, 0), bases, u)
        assert bits.shape == (8, 2)
        for t in range(8):
            row_bits, row = measure_rows(batch[t : t + 1], (2, 0), bases[t], u[t : t + 1])
            assert np.array_equal(bits[t], row_bits[0])
            assert np.array_equal(collapsed[t], row[0])
        check_rows(collapsed)

    def test_single_state_is_the_one_row_case(self):
        state = prepare_ghz(3)
        bits, collapsed = measure_qubits(state, (0, 2), (HADAMARD, COMPUTATIONAL), np.random.default_rng(4))
        row_bits, rows = measure_rows(
            state.amplitudes[None], (0, 2), (HADAMARD, COMPUTATIONAL), np.random.default_rng(4).random(1)
        )
        assert bits == tuple(row_bits[0])
        assert np.array_equal(collapsed.amplitudes, rows[0])

    def test_sampling_draws_the_outcomes_of_a_measurement(self):
        rng = np.random.default_rng(5)
        batch = random_batch(rng, 8, 4)
        bases = np.where(rng.integers(0, 2, size=(8, 2)) == 1, HADAMARD, COMPUTATIONAL)
        u = rng.random(8)
        bits, _ = sample_rows(batch, (2, 0), bases, u)
        measured, _ = measure_rows(batch, (2, 0), bases, u)
        assert np.array_equal(bits, measured)

    def test_residual_is_the_unmeasured_part_of_the_collapsed_rows(self):
        rng = np.random.default_rng(6)
        batch = random_batch(rng, 8, 4)
        qubits = (2, 0)
        bases = np.where(rng.integers(0, 2, size=(8, 2)) == 1, HADAMARD, COMPUTATIONAL)
        u = rng.random(8)
        bits, residual = sample_rows(batch, qubits, bases, u)
        _, collapsed = measure_rows(batch, qubits, bases, u)
        # qubits 1 and 3 remain, as residual qubits 0 and 1
        assert residual.shape == (8, 4)
        assert np.allclose(np.linalg.norm(residual, axis=1), 1.0, atol=1e-12)
        for t in range(8):
            row = collapsed[t : t + 1]
            for j, q in enumerate(qubits):
                if bases[t, j] == HADAMARD:  # back to the measurement frame
                    row = hadamard_rows(row, q)
            kept = [i for i in range(16) if ((i >> 2) & 1, i & 1) == tuple(bits[t])]
            assert np.allclose(row[0, kept], residual[t], atol=1e-12)

    def test_residual_of_a_full_measurement_is_a_phase(self):
        batch = random_batch(np.random.default_rng(7), 5, 3)
        bits, residual = sample_rows(batch, range(3), (HADAMARD,) * 3, np.full(5, 0.5))
        assert bits.shape == (5, 3) and residual.shape == (5, 1)
        assert np.allclose(np.abs(residual), 1.0, atol=1e-12)

    def test_check_rows_rejects_a_bad_row(self):
        batch = np.tile(prepare_ghz(2).amplitudes, (3, 1))
        check_rows(batch)
        batch[1] *= 1.001
        with pytest.raises(ValueError, match="norm"):
            check_rows(batch)
        with pytest.raises(ValueError):
            check_rows(np.ones((2, 3)) / np.sqrt(3))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.data())
def test_measurement_statistics_match_distribution(n, data):
    """Sampled outcome frequencies of a GHZ tuple agree with the exact
    Born distribution within binomial noise."""
    seed = data.draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    ghz = prepare_ghz(n)
    probs = distribution(ghz, [COMPUTATIONAL] * n)
    counts = np.zeros(1 << n)
    for _ in range(200):
        outcome, _ = measure_all(ghz, [COMPUTATIONAL] * n, rng)
        counts[outcome.value] += 1
    assert counts[0] + counts[(1 << n) - 1] == 200
    assert abs(counts[0] / 200 - probs[0]) < 0.15
