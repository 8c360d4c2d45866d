import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghzcast.bitvec import (
    PARITY_CENSUS_CAP,
    BitVector,
    SegmentLayout,
    bit_vectors,
    concat_secrets,
    parity_census,
    split,
    xor,
    xor_all,
)

bitvectors = st.integers(min_value=1, max_value=24).flatmap(
    lambda m: st.builds(BitVector, st.integers(0, (1 << m) - 1), st.just(m))
)


def _same_length(m, count):
    one = st.builds(BitVector, st.integers(0, (1 << m) - 1), st.just(m))
    return st.tuples(*[one] * count)


bitvector_pairs = st.integers(min_value=1, max_value=24).flatmap(
    lambda m: _same_length(m, 2)
)


class TestBitVector:
    def test_text_round_trip(self):
        v = BitVector.from_text("110")
        assert v.value == 6
        assert v.length == 3
        assert str(v) == "110"
        # index 0 is the least significant bit
        assert v.bit(0) == 0
        assert v.bit(2) == 1

    def test_bits_least_significant_first(self):
        assert BitVector.from_text("110").bits() == (0, 1, 1)

    def test_empty(self):
        v = BitVector.from_text("")
        assert len(v) == 0
        assert str(v) == ""

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            BitVector.from_text("10a")
        with pytest.raises(ValueError):
            BitVector(4, 2)
        with pytest.raises(IndexError):
            BitVector.from_text("10").bit(2)

    @given(bitvectors)
    def test_bits_round_trip(self, v):
        assert bit_vectors(np.array([v.bits()])) == [v]
        assert BitVector.from_text(str(v)) == v


class TestXor:
    def test_self_inverse(self):
        v = BitVector.from_text("111")
        assert str(v ^ v) == "000"

    def test_example_folds(self):
        # the two register folds of the worked three-party example
        a = BitVector.from_text("111")
        assert str(xor_all([a, BitVector.from_text("111"), BitVector.from_text("010")])) == "010"
        assert str(xor_all([a, BitVector.from_text("100"), BitVector.from_text("110")])) == "101"

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            xor(BitVector.from_text("1"), BitVector.from_text("10"))
        with pytest.raises(ValueError):
            xor_all([])

    @given(bitvector_pairs)
    def test_commutes(self, pair):
        x, y = pair
        assert x ^ y == y ^ x

    @given(bitvector_pairs)
    def test_cancellation(self, pair):
        x, y = pair
        assert (x ^ y) ^ y == x


class TestLayout:
    def test_totals(self):
        layout = SegmentLayout((3, 3))
        assert layout.total == 6
        assert layout.segments == 2

    def test_rejects_empty_segments(self):
        with pytest.raises(ValueError):
            SegmentLayout(())
        with pytest.raises(ValueError):
            SegmentLayout((3, 0))


class TestConcat:
    def test_example_payload(self, example_secrets):
        payload, layout = concat_secrets(example_secrets)
        assert str(payload) == "101010"
        assert layout.lengths == (3, 3)

    def test_single_agent_identity(self):
        payload, layout = concat_secrets([BitVector.from_text("1")])
        assert str(payload) == "1"
        assert layout.lengths == (1,)

    def test_uneven_lengths(self):
        payload, layout = concat_secrets(
            [BitVector.from_text("11"), BitVector.from_text("0"), BitVector.from_text("101")]
        )
        assert str(payload) == "101011"
        assert layout.total == 6

    @given(
        st.lists(
            st.integers(1, 6).flatmap(
                lambda m: st.builds(BitVector, st.integers(0, (1 << m) - 1), st.just(m))
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_segment_round_trip(self, secrets):
        payload, layout = concat_secrets(secrets)
        assert payload.length == sum(len(s) for s in secrets)
        assert split(payload, layout) == tuple(secrets)


class TestSegment:
    def test_example_segments(self):
        layout = SegmentLayout((3, 3))
        assert [str(s) for s in split(BitVector.from_text("111111"), layout)] == ["111", "111"]
        assert [str(s) for s in split(BitVector.from_text("110010"), layout)] == ["010", "110"]
        assert [str(s) for s in split(BitVector.from_text("101010"), layout)] == ["010", "101"]

    def test_length_guard(self):
        with pytest.raises(ValueError):
            split(BitVector.from_text("10"), SegmentLayout((3, 3)))


class TestParityCensus:
    def test_zero_vector(self):
        assert parity_census(BitVector.from_text("0000")) == (16, 0)

    def test_frozen_nonzero(self):
        assert parity_census(BitVector.from_text("0001")) == (8, 8)
        assert parity_census(BitVector.from_text("1011")) == (8, 8)

    @given(st.integers(1, 16).flatmap(
        lambda m: st.builds(BitVector, st.integers(1, (1 << m) - 1), st.just(m))
    ))
    def test_every_nonzero_splits_in_half(self, c):
        m = c.length
        assert parity_census(c) == (1 << (m - 1), 1 << (m - 1))

    def test_cap(self):
        with pytest.raises(ValueError):
            parity_census(BitVector.zeros(PARITY_CENSUS_CAP + 1))
