import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzcast.distribution import build_plan
from ghzcast.statevec import hadamard_product_rows, prepare_ghz


def test_decoy_tuple_records_preparation(rng):
    plan = build_plan(2, 6, 3, [rng], prepare_ghz(3))
    # the i-th decoy row in stream order holds the preparation of signs row i
    for signs, state in zip(plan.signs, plan.states[plan.index[plan.is_decoy]]):
        assert np.array_equal(state, hadamard_product_rows([signs])[0])


def test_decoy_tuple_random_signs(rng):
    plan = build_plan(1, 100, 2, [rng], prepare_ghz(2))
    assert set(map(tuple, plan.signs.tolist())) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_tuple_record_kind_guard(rng):
    # a preparation record exists exactly for the decoy positions
    plan = build_plan(5, 7, 3, [rng], prepare_ghz(3))
    assert plan.signs.shape == (7, 3)
    assert plan.is_decoy.shape == (12,) and np.count_nonzero(plan.is_decoy) == 7


class TestBuildPlan:
    def test_no_decoys_is_identity_order(self, rng):
        plan = build_plan(6, 0, 3, [rng], prepare_ghz(3))
        assert not plan.is_decoy.any()
        assert plan.signs.shape == (0, 3)

    def test_counts(self, rng):
        plan = build_plan(6, 4, 3, [rng], prepare_ghz(3))
        assert plan.index.shape == (10,)
        # the GHZ row, then each decoy sign pattern once
        assert plan.states.shape == (1 + len(set(map(tuple, plan.signs.tolist()))), 8)
        assert plan.signs.shape == (4, 3)
        assert np.count_nonzero(plan.is_decoy) == 4

    def test_information_tuples_share_ghz(self, rng):
        plan = build_plan(4, 2, 3, [rng], prepare_ghz(3))
        ghz = prepare_ghz(3)
        assert not plan.index[~plan.is_decoy].any()
        for state in plan.states[plan.index[~plan.is_decoy]]:
            assert np.array_equal(state, ghz[0])

    def test_interleave_is_uniform(self):
        rng = np.random.default_rng(99)
        first_is_decoy = 0
        draws = 10_000
        for _ in range(draws):
            plan = build_plan(1, 1, 2, [rng], prepare_ghz(2))
            first_is_decoy += plan.is_decoy[0]
        assert abs(first_is_decoy / draws - 0.5) < 0.02

    @given(st.integers(1, 8), st.integers(0, 8), st.integers(2, 4), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_plan_invariants(self, m, d, n, seed):
        plan = build_plan(m, d, n, [np.random.default_rng(seed)], prepare_ghz(n))
        assert plan.is_decoy.shape == (m + d,) and np.count_nonzero(plan.is_decoy) == d
        assert plan.index.shape == (m + d,)
        # every distinct state once: no two rows alike, and every row used
        assert len(np.unique(plan.states, axis=0)) == len(plan.states)
        assert set(plan.index.tolist()) == set(range(len(plan.states)))
        stream = plan.states[plan.index]
        assert stream.shape == (m + d, 1 << n)
        assert np.array_equal(stream[plan.is_decoy], hadamard_product_rows(plan.signs))
        ghz = np.tile(prepare_ghz(n), (m, 1))
        assert np.array_equal(stream[~plan.is_decoy], ghz)
