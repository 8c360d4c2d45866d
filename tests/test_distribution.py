import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzcast.distribution import build_plan
from ghzcast.statevec import prepare_ghz, prepare_hadamard_product


def test_decoy_tuple_records_preparation(rng):
    plan = build_plan(2, 6, 3, rng)
    for pos, signs in plan.position_map.items():
        assert plan.is_decoy[pos]
        assert np.array_equal(plan.states[pos], prepare_hadamard_product(signs).amplitudes)


def test_decoy_tuple_random_signs(rng):
    plan = build_plan(1, 100, 2, rng)
    assert set(plan.position_map.values()) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_tuple_record_kind_guard(rng):
    # a preparation record exists exactly for the decoy positions
    plan = build_plan(5, 7, 3, rng)
    assert plan.signs.shape == (7, 3)
    assert set(plan.position_map) == set(np.flatnonzero(plan.is_decoy).tolist())
    assert not set(plan.position_map) & set(plan.information_positions)


class TestBuildPlan:
    def test_no_decoys_is_identity_order(self, rng):
        plan = build_plan(6, 0, 3, rng)
        assert plan.order == tuple(range(6))
        assert plan.decoy_positions == ()
        assert plan.information_positions == tuple(range(6))

    def test_counts(self, rng):
        plan = build_plan(6, 4, 3, rng)
        assert plan.states.shape == (10, 8)
        assert len(plan.position_map) == 4
        assert len(plan.information_positions) == 6
        assert set(plan.decoy_positions) | set(plan.information_positions) == set(range(10))

    def test_information_tuples_share_ghz(self, rng):
        plan = build_plan(4, 2, 3, rng)
        ghz = prepare_ghz(3)
        for pos in plan.information_positions:
            assert np.array_equal(plan.states[pos], ghz.amplitudes)

    def test_payload_bit_order_follows_stream(self, rng):
        # information tuple j in stream order carries payload bit j
        for _ in range(20):
            plan = build_plan(5, 3, 3, rng)
            info_ids = [plan.order[pos] for pos in plan.information_positions]
            assert info_ids == list(range(5))

    def test_interleave_is_uniform(self):
        rng = np.random.default_rng(99)
        first_is_decoy = 0
        draws = 10_000
        for _ in range(draws):
            plan = build_plan(1, 1, 2, rng)
            first_is_decoy += plan.is_decoy[0]
        assert abs(first_is_decoy / draws - 0.5) < 0.02

    @given(st.integers(1, 8), st.integers(0, 8), st.integers(2, 4), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_plan_invariants(self, m, d, n, seed):
        plan = build_plan(m, d, n, np.random.default_rng(seed))
        assert sorted(plan.order) == list(range(m + d))
        assert plan.states.shape == (m + d, 1 << n)
        decoys = [pos for pos in range(m + d) if plan.order[pos] >= m]
        assert tuple(decoys) == plan.decoy_positions
        for pos, signs in plan.position_map.items():
            assert np.array_equal(plan.states[pos], prepare_hadamard_product(signs).amplitudes)
