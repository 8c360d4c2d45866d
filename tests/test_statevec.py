import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghzcast.bitvec import BitVector
from ghzcast.distribution import build_plan
from ghzcast.statevec import (
    MAX_QUBITS,
    append_rows,
    check_rows,
    cnot_rows,
    distribution,
    ghz_layers,
    hadamard_product_rows,
    hadamard_rows,
    measure_rows,
    phase_flip_rows,
    prepare_basis,
    prepare_ghz,
    sample_rows,
    swap_rows,
    width,
)

SQ2 = math.sqrt(0.5)


def plus_minus(signs):
    """Product of plus (0) and minus (1) qubits, as a one-row batch."""
    return hadamard_product_rows([signs])


def every_row(batch):
    """The index of a dense batch, one tuple per row."""
    return np.arange(batch.shape[0])


def measure_one(state, qubits, hadamard, rng):
    """Measure a one-row batch: its bits and its collapsed one-row batch."""
    bits, collapsed, index = measure_rows(state, [0], list(qubits), hadamard, rng.random(1))
    return tuple(bits[0].tolist()), collapsed[index]


class TestPreparation:
    def test_basis_states(self):
        for text, index in (("0", 0), ("101", 5), ("11", 3)):
            state = prepare_basis(BitVector.from_text(text))
            assert state.shape == (1, 1 << len(text)) and state.dtype == np.float64
            assert state[0, index] == 1.0
            check_rows(state)

    def test_norm_guard(self):
        with pytest.raises(ValueError):
            check_rows(np.array([[1.0, 1.0]]))
        with pytest.raises(ValueError):
            check_rows(np.zeros((1, 4)))
        # zero rows: the width check fires without a 2**25 allocation
        with pytest.raises(ValueError):
            check_rows(np.zeros((0, 1 << (MAX_QUBITS + 1))))
        with pytest.raises(ValueError):
            prepare_basis(BitVector.zeros(MAX_QUBITS + 1))

    def test_plus_plus(self):
        assert np.allclose(plus_minus((0, 0)), [[0.5, 0.5, 0.5, 0.5]])

    def test_forced_signs(self):
        # qubit 1 is minus: sign flips whenever index bit 1 is set
        expect = np.array([[1, 1, -1, -1, 1, 1, -1, -1]]) / (2 * math.sqrt(2))
        assert np.allclose(plus_minus((0, 1, 0)), expect)

    def test_minus_fraction_of_random_decoys(self):
        signs = build_plan(1, 10_000, 4, [np.random.default_rng(5)], prepare_ghz(4)).signs
        assert signs.shape == (10_000, 4)
        assert np.all(np.abs(signs.mean(axis=0) - 0.5) < 0.02)


class TestGates:
    def test_hadamard_on_zero(self):
        state = hadamard_rows(prepare_basis(BitVector.from_text("0")), 0)
        assert np.allclose(state[0], [SQ2, SQ2])

    def test_hadamard_on_one(self):
        state = hadamard_rows(prepare_basis(BitVector.from_text("1")), 0)
        assert np.allclose(state[0], [SQ2, -SQ2])

    def test_hadamard_involution(self):
        zero = prepare_basis(BitVector.from_text("0"))
        assert np.allclose(hadamard_rows(hadamard_rows(zero, 0), 0), zero, rtol=0, atol=1e-10)

    def test_cnot_basis(self):
        # |10> means qubit 1 set; control=1 flips target=0 giving |11>
        state = cnot_rows(prepare_basis(BitVector.from_text("10")), 1, 0)
        assert state[0, 3] == 1.0
        state = cnot_rows(prepare_basis(BitVector.from_text("00")), 1, 0)
        assert state[0, 0] == 1.0

    def test_phase_kickback_identity(self):
        # control superposition, target minus: CNOT flips the control-1 sign
        # and leaves the target exactly separable
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=2)
        norm = math.hypot(a, b)
        a, b = a / norm, b / norm
        control = np.array([[a, b]])
        minus = plus_minus((1,))
        state = cnot_rows(append_rows(control, minus), control=0, target=1)
        expect = append_rows(np.array([[a, -b]]), minus)
        assert np.allclose(state, expect, rtol=0, atol=1e-12)

    def test_phase_flip_equals_kickback(self):
        # Z on the control is the same map once the minus target is traced off
        flipped = phase_flip_rows(prepare_ghz(3), 2)
        expect = np.zeros((1, 8))
        expect[0, 0] = SQ2
        expect[0, 7] = -SQ2
        assert np.allclose(flipped, expect)

    def test_gates_do_not_mutate(self):
        ghz = prepare_ghz(2)
        before = ghz.copy()
        phase_flip_rows(ghz, 1)
        hadamard_rows(ghz, 0)
        cnot_rows(ghz, 0, 1)
        assert np.array_equal(ghz, before)


class TestGhz:
    def test_n3_amplitudes(self):
        state = prepare_ghz(3)
        assert state.shape == (1, 8) and state.dtype == np.float64
        expect = np.zeros((1, 8))
        expect[0, 0] = expect[0, 7] = SQ2
        assert np.allclose(state, expect)
        check_rows(state)

    def test_n2_bell_pair(self):
        state = prepare_ghz(2)
        assert np.allclose(state, [[SQ2, 0, 0, SQ2]])

    def test_topologies_agree(self):
        for n in range(2, 11):
            linear, log_depth = prepare_ghz(n, "linear"), prepare_ghz(n, "log_depth")
            assert np.allclose(linear, log_depth, rtol=0, atol=1e-12)

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
        probs = distribution(prepare_ghz(3), False)
        expect = np.zeros((1, 8))
        expect[0, [0, 7]] = 0.5
        assert np.allclose(probs, expect)

    def test_ghz_hadamard_even_parity(self):
        probs = distribution(prepare_ghz(3), True)
        expect = np.zeros((1, 8))
        expect[0, [0, 3, 5, 6]] = 0.25
        assert np.allclose(probs, expect)

    def test_flipped_ghz_hadamard_odd_parity(self):
        probs = distribution(phase_flip_rows(prepare_ghz(3), 2), [True] * 3)
        expect = np.zeros((1, 8))
        expect[0, [1, 2, 4, 7]] = 0.25
        assert np.allclose(probs, expect)

    def test_minus_computational(self):
        probs = distribution(plus_minus((1,)), [False])
        assert np.allclose(probs, [[0.5, 0.5]])

    def test_zero_computational(self):
        probs = distribution(prepare_basis(BitVector.from_text("0")), False)
        assert np.allclose(probs, [[1.0, 0.0]])

    def test_rows_are_independent(self):
        ghz = prepare_ghz(3)
        batch = np.concatenate([ghz, phase_flip_rows(ghz, 2)])
        probs = distribution(batch, True)
        assert probs.shape == (2, 8)
        assert np.array_equal(probs[0], distribution(ghz, True)[0])
        assert np.array_equal(probs[1], distribution(batch[1:], np.ones((1, 3), bool))[0])

    def test_basis_validation(self):
        ghz = prepare_ghz(3)
        with pytest.raises(ValueError):
            distribution(ghz, [True] * 2)
        # a basis name would convert to True, so any non-boolean mask is refused
        with pytest.raises(ValueError, match="boolean"):
            distribution(ghz, ["computational"] * 3)


class TestMeasurement:
    def test_plus_in_hadamard_is_deterministic(self, rng):
        plus = plus_minus((0,))
        for _ in range(20):
            bits, _ = measure_one(plus, (0,), [True], rng)
            assert bits == (0,)

    def test_decoy_signs_recovered_exactly(self, rng):
        for _ in range(40):
            signs = tuple(int(b) for b in rng.integers(0, 2, size=3))
            state = plus_minus(signs)
            bits, collapsed = measure_one(state, (0, 1, 2), True, rng)
            assert bits == signs
            # a product state measured in its own basis is undisturbed
            assert np.allclose(collapsed, state, rtol=0, atol=1e-12)

    def test_partial_measurement_collapses_ghz(self, rng):
        ghz = prepare_ghz(3)
        for _ in range(20):
            (first,), collapsed = measure_one(ghz, (1,), [False], rng)
            rest, _ = measure_one(collapsed, (0, 2), False, rng)
            assert rest == (first, first)

    def test_hadamard_collapse_returns_physical_frame(self, rng):
        # measuring |0> in the Hadamard basis leaves a plus or minus state
        zero = prepare_basis(BitVector.from_text("0"))
        seen = set()
        for _ in range(30):
            (bit,), collapsed = measure_one(zero, (0,), True, rng)
            seen.add(bit)
            assert np.allclose(collapsed, plus_minus((bit,)), rtol=0, atol=1e-12)
        assert seen == {0, 1}

    def test_ghz_hadamard_parity_even(self, rng):
        for n in (2, 3, 4, 5):
            ghz = prepare_ghz(n)
            for _ in range(60):
                bits, _ = measure_one(ghz, range(n), True, rng)
                assert sum(bits) % 2 == 0

    def test_input_validation(self, rng):
        ghz = prepare_ghz(2)
        with pytest.raises(ValueError):
            measure_one(ghz, (0, 0), True, rng)
        with pytest.raises(ValueError):
            measure_one(ghz, (0,), [True, True], rng)
        with pytest.raises(ValueError):
            measure_one(ghz, (5,), True, rng)
        with pytest.raises(ValueError, match="boolean"):
            measure_one(ghz, (0,), ["computational"], rng)

    @pytest.mark.parametrize(
        "mask", ["computational", "hadamard", ["computational"], [1], [0.0], np.array([b"h"])]
    )
    def test_a_basis_name_raises(self, mask):
        # np.asarray("computational", dtype=bool) is True: a leftover basis
        # name must not be read as a Hadamard measurement
        batch = np.tile(prepare_ghz(2), (3, 1))
        with pytest.raises(ValueError, match="boolean"):
            sample_rows(batch, every_row(batch), (0,), mask, np.full(3, 0.5))


class TestCombinators:
    def test_tensor_places_extra_on_high_bits(self):
        one = prepare_basis(BitVector.from_text("1"))
        zero = prepare_basis(BitVector.from_text("0"))
        joint = append_rows(zero, one)
        assert joint.shape == (1, 4) and joint[0, 2] == 1.0

    def test_swap_relabels(self):
        state = prepare_basis(BitVector.from_text("01"))
        swapped = swap_rows(state, 0, 1)
        assert swapped[0, 2] == 1.0
        assert np.array_equal(swap_rows(swapped, 0, 1), state)

    def test_swap_same_is_identity(self):
        ghz = prepare_ghz(2)
        assert np.array_equal(swap_rows(ghz, 1, 1), ghz)


def random_batch(rng, rows, num_qubits):
    batch = rng.normal(size=(rows, 1 << num_qubits))
    return batch / np.linalg.norm(batch, axis=1, keepdims=True)


KERNEL_CASES = [
    (hadamard_rows, (1,)),
    (cnot_rows, (2, 0)),
    (phase_flip_rows, (3,)),
    (swap_rows, (0, 3)),
    (append_rows, (np.array([[0.6, 0.8]]),)),
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
        empty = np.zeros((0, 16))
        for kernel, args in KERNEL_CASES:
            assert kernel(empty, *args).shape[0] == 0
        bits, collapsed, index = measure_rows(empty, every_row(empty), (0, 1), True, np.zeros(0))
        assert bits.shape == (0, 2) and collapsed.shape == (0, 16) and index.shape == (0,)

    def test_measurement_acts_row_by_row(self):
        rng = np.random.default_rng(2)
        batch = random_batch(rng, 8, 4)
        hadamard = rng.integers(0, 2, size=(8, 2)) == 1
        u = rng.random(8)
        bits, collapsed, index = measure_rows(batch, every_row(batch), (2, 0), hadamard, u)
        assert bits.shape == (8, 2)
        for t in range(8):
            row_bits, row, _ = measure_rows(batch[t : t + 1], [0], (2, 0), hadamard[t], u[t : t + 1])
            assert np.array_equal(bits[t], row_bits[0])
            assert np.array_equal(collapsed[index[t]], row[0])
        check_rows(collapsed)

    def test_sampling_draws_the_outcomes_of_a_measurement(self):
        rng = np.random.default_rng(5)
        batch = random_batch(rng, 8, 4)
        hadamard = rng.integers(0, 2, size=(8, 2)) == 1
        u = rng.random(8)
        bits, _, _ = sample_rows(batch, every_row(batch), (2, 0), hadamard, u)
        measured, _, _ = measure_rows(batch, every_row(batch), (2, 0), hadamard, u)
        assert np.array_equal(bits, measured)

    def test_residual_is_the_unmeasured_part_of_the_collapsed_rows(self):
        rng = np.random.default_rng(6)
        batch = random_batch(rng, 8, 4)
        qubits = (2, 0)
        hadamard = rng.integers(0, 2, size=(8, 2)) == 1
        u = rng.random(8)
        bits, residual, index = sample_rows(batch, every_row(batch), qubits, hadamard, u)
        _, collapsed, collapsed_index = measure_rows(batch, every_row(batch), qubits, hadamard, u)
        residual, collapsed = residual[index], collapsed[collapsed_index]
        # qubits 1 and 3 remain, as residual qubits 0 and 1
        assert residual.shape == (8, 4)
        assert np.allclose(np.linalg.norm(residual, axis=1), 1.0, atol=1e-12)
        for t in range(8):
            row = collapsed[t : t + 1]
            for j, q in enumerate(qubits):
                if hadamard[t, j]:  # back to the measurement frame
                    row = hadamard_rows(row, q)
            kept = [i for i in range(16) if ((i >> 2) & 1, i & 1) == tuple(bits[t])]
            assert np.allclose(row[0, kept], residual[t], atol=1e-12)

    def test_residual_of_a_full_measurement_is_a_phase(self):
        batch = random_batch(np.random.default_rng(7), 5, 3)
        bits, residual, index = sample_rows(batch, every_row(batch), range(3), True, np.full(5, 0.5))
        assert bits.shape == (5, 3) and residual.shape == (5, 1) and index.shape == (5,)
        # one real amplitude of modulus 1: the phase is a sign
        assert residual.dtype == np.float64
        assert np.allclose(np.abs(residual), 1.0, atol=1e-12)

    def test_check_rows_rejects_a_bad_row(self):
        batch = np.tile(prepare_ghz(2), (3, 1))
        check_rows(batch)
        batch[1] *= 1.001
        with pytest.raises(ValueError, match="norm"):
            check_rows(batch)
        with pytest.raises(ValueError):
            check_rows(np.ones((2, 3)) / np.sqrt(3))


@pytest.mark.parametrize(
    "call",
    [
        check_rows,
        lambda batch: sample_rows(batch, [0], (0,), True, np.zeros(1)),
        lambda batch: measure_rows(batch, [0], (0,), True, np.zeros(1)),
        lambda batch: distribution(batch, False),
    ],
    ids=["check_rows", "sample_rows", "measure_rows", "distribution"],
)
def test_a_complex_batch_is_refused(call):
    # amplitudes are real by convention; a complex batch is an upcast somewhere
    with pytest.raises(ValueError, match="must be float64, not complex128"):
        call(prepare_ghz(2).astype(np.complex128))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.data())
def test_measurement_statistics_match_distribution(n, data):
    """Sampled outcome frequencies of a GHZ tuple agree with the exact
    Born distribution within binomial noise."""
    seed = data.draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    ghz = prepare_ghz(n)
    probs = distribution(ghz, False)[0]
    bits, _, _ = sample_rows(ghz, np.zeros(200, dtype=int), range(n), [False] * n, rng.random(200))
    counts = np.bincount(bits @ (1 << np.arange(n)), minlength=1 << n)
    assert counts[0] + counts[(1 << n) - 1] == 200
    assert abs(counts[0] / 200 - probs[0]) < 0.15


def reference_measure(row, qubits, hadamard, u):
    """One row measured the slow way: (bits, residual, collapsed row).

    Each outcome's probability is a Python running sum over its basis
    indices in ascending order, the order the kernels must keep.
    """
    q, k = width(row[None]), len(qubits)
    frame = row[None]
    for j, qubit in enumerate(qubits):
        if hadamard[j]:
            frame = hadamard_rows(frame, qubit)
    amps = frame[0].tolist()
    outcome_of = [
        sum(((i >> qubit) & 1) << b for b, qubit in enumerate(qubits)) for i in range(1 << q)
    ]
    weights = [0.0] * (1 << k)
    for i, amp in enumerate(amps):
        weights[outcome_of[i]] += amp * amp
    cum, total = [], 0.0
    for weight in weights:
        total += weight
        cum.append(total)
    r = u * total
    picked = min(sum(c <= r for c in cum), (1 << k) - 1)
    norm = math.sqrt(weights[picked])
    kept = [i for i in range(1 << q) if outcome_of[i] == picked]
    residual = np.array([amps[i] / norm for i in kept])
    collapsed = np.zeros((1, 1 << q))
    collapsed[0, kept] = residual
    for j, qubit in enumerate(qubits):
        if hadamard[j]:
            collapsed = hadamard_rows(collapsed, qubit)
    bits = [(picked >> b) & 1 for b in range(k)]
    return bits, residual, collapsed[0]


@settings(max_examples=400, deadline=None)
@given(
    st.integers(1, 7).flatmap(
        lambda q: st.tuples(
            st.just(q),
            st.permutations(range(q)).flatmap(
                lambda order: st.integers(0, q).map(lambda k: order[:k])
            ),
        )
    ),
    st.sampled_from([0, 1, 2, 5]),
    st.integers(0, 2**32 - 1),
)
def test_kernels_equal_the_reference_bit_for_bit(shape, rows, seed):
    """sample_rows and measure_rows agree exactly with a per-row reference
    that sums each outcome's probability in ascending basis index."""
    q, qubits = shape
    rng = np.random.default_rng(seed)
    batch = random_batch(rng, rows, q)
    hadamard = rng.integers(0, 2, size=(rows, len(qubits))) == 1
    u = rng.random(rows)
    bits, residual, index = sample_rows(batch, every_row(batch), qubits, hadamard, u)
    measured, collapsed, collapsed_index = measure_rows(batch, every_row(batch), qubits, hadamard, u)
    residual, collapsed = residual[index], collapsed[collapsed_index]
    assert bits.shape == measured.shape == (rows, len(qubits))
    assert residual.shape == (rows, 1 << (q - len(qubits)))
    assert collapsed.shape == batch.shape
    for t in range(rows):
        ref_bits, ref_residual, ref_collapsed = reference_measure(
            batch[t], qubits, hadamard[t], float(u[t])
        )
        assert bits[t].tolist() == measured[t].tolist() == ref_bits
        assert np.array_equal(residual[t], ref_residual)
        assert np.array_equal(collapsed[t], ref_collapsed)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda q: st.tuples(
            st.just(q),
            st.permutations(range(q)).flatmap(
                lambda order: st.integers(0, q).map(lambda k: order[:k])
            ),
        )
    ),
    st.integers(0, 4),
    st.lists(st.integers(0, 3), max_size=10),
    st.integers(0, 2**32 - 1),
)
@example(shape=(3, [2, 0, 1]), distinct=2, picks=[1, 1, 1, 1], seed=1)  # every qubit, one row used
@example(shape=(4, [1]), distinct=3, picks=[], seed=2)  # zero tuples
@example(shape=(2, [0]), distinct=0, picks=[], seed=3)  # zero tuples, no states
def test_index_form_equals_the_expanded_batch(shape, distinct, picks, seed):
    """A stream given as distinct states plus an index measures exactly as
    the dense batch of one row per tuple, states[index]: same bits, same
    residuals and same collapsed rows, with duplicate and unused rows and a
    Hadamard mask per distinct state."""
    q, qubits = shape
    rng = np.random.default_rng(seed)
    states = random_batch(rng, distinct, q)
    index = np.array([p % distinct for p in picks] if distinct else [], dtype=np.intp)
    hadamard = rng.integers(0, 2, size=(distinct, len(qubits))) == 1
    u = rng.random(index.size)
    dense = states[index]

    bits, residual, residual_index = sample_rows(states, index, qubits, hadamard, u)
    dense_bits, dense_residual, dense_index = sample_rows(
        dense, every_row(dense), qubits, hadamard[index], u
    )
    assert np.array_equal(bits, dense_bits)
    assert np.array_equal(residual[residual_index], dense_residual[dense_index])
    # one residual per distinct (state, outcome) pair the tuples reached
    assert residual.shape[0] == len(set(zip(index.tolist(), map(tuple, bits.tolist()))))

    measured, collapsed, collapsed_index = measure_rows(states, index, qubits, hadamard, u)
    _, dense_collapsed, dense_collapsed_index = measure_rows(
        dense, every_row(dense), qubits, hadamard[index], u
    )
    assert np.array_equal(measured, bits)
    assert np.array_equal(collapsed[collapsed_index], dense_collapsed[dense_collapsed_index])
