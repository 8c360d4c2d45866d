import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzcast.distribution import build_plan
from ghzcast.statevec import hadamard_product_rows, prepare_ghz


def test_decoy_tuple_records_preparation(rng):
    plan = build_plan(2, 6, 3, [rng])
    states, index = plan.stream()
    # the i-th decoy row in stream order holds the preparation of signs row i
    for signs, state in zip(plan.signs, states[index[plan.is_decoy]]):
        assert np.array_equal(state, hadamard_product_rows([signs])[0])


def test_decoy_tuple_random_signs(rng):
    plan = build_plan(1, 100, 2, [rng])
    assert set(map(tuple, plan.signs.tolist())) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_tuple_record_kind_guard(rng):
    # a preparation record exists exactly for the decoy positions
    plan = build_plan(5, 7, 3, [rng])
    assert plan.signs.shape == (7, 3)
    assert plan.is_decoy.shape == (12,) and np.count_nonzero(plan.is_decoy) == 7


class TestBuildPlan:
    def test_no_decoys_is_identity_order(self, rng):
        plan = build_plan(6, 0, 3, [rng])
        assert not plan.is_decoy.any()
        assert plan.signs.shape == (0, 3)

    def test_counts(self, rng):
        plan = build_plan(6, 4, 3, [rng])
        states, index = plan.stream()
        assert index.shape == (10,)
        # the GHZ row, then each decoy sign pattern once
        assert states.shape == (1 + len(set(map(tuple, plan.signs.tolist()))), 8)
        assert plan.signs.shape == (4, 3)
        assert np.count_nonzero(plan.is_decoy) == 4

    def test_information_tuples_share_ghz(self, rng):
        plan = build_plan(4, 2, 3, [rng])
        ghz = prepare_ghz(3)
        states, index = plan.stream()
        assert not index[~plan.is_decoy].any()
        for state in states[index[~plan.is_decoy]]:
            assert np.array_equal(state, ghz[0])

    def test_interleave_is_uniform(self):
        rng = np.random.default_rng(99)
        first_is_decoy = 0
        draws = 10_000
        for _ in range(draws):
            plan = build_plan(1, 1, 2, [rng])
            first_is_decoy += plan.is_decoy[0]
        assert abs(first_is_decoy / draws - 0.5) < 0.02

    @given(st.integers(1, 8), st.integers(0, 8), st.integers(2, 4), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_plan_invariants(self, m, d, n, seed):
        plan = build_plan(m, d, n, [np.random.default_rng(seed)])
        states, index = plan.stream()
        assert plan.is_decoy.shape == (m + d,) and np.count_nonzero(plan.is_decoy) == d
        assert index.shape == (m + d,)
        # every distinct state once: no two rows alike, and every row used
        assert len(np.unique(states, axis=0)) == len(states)
        assert set(index.tolist()) == set(range(len(states)))
        stream = states[index]
        assert stream.shape == (m + d, 1 << n)
        assert np.array_equal(stream[plan.is_decoy], hadamard_product_rows(plan.signs))
        ghz = np.tile(prepare_ghz(n), (m, 1))
        assert np.array_equal(stream[~plan.is_decoy], ghz)


@given(st.integers(1, 8), st.integers(0, 8), st.integers(2, 5), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_the_plan_holds_every_protocol_draw_in_order(m, d, n, seed):
    # a run's protocol generator makes three draws, all of them here: the
    # permutation, the decoy signs, then validation's and decryption's
    # uniforms in one block
    rng = np.random.default_rng(seed)
    is_decoy = rng.permutation(m + d) >= m
    signs = rng.integers(0, 2, (d, n))
    draws = rng.random(d * n + m)
    plan = build_plan(m, d, n, [np.random.default_rng(seed)])
    assert np.array_equal(plan.is_decoy, is_decoy)
    assert np.array_equal(plan.signs, signs)
    assert np.array_equal(plan.draws, draws[None])

    # a stack's plan is its runs' lone plans, run after run
    seeds = [seed, seed + 1, seed + 2]
    stack = build_plan(m, d, n, [np.random.default_rng(s) for s in seeds])
    lone = [build_plan(m, d, n, [np.random.default_rng(s)]) for s in seeds]
    assert len(stack.draws) == 3
    for name in ("is_decoy", "signs", "draws"):
        joined = np.concatenate([getattr(plan, name) for plan in lone])
        assert np.array_equal(getattr(stack, name), joined)
