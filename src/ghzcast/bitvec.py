"""Bit vectors over GF(2) and the segment bookkeeping for multi-agent payloads.

Bit index 0 is the least significant bit. The textual form is written most
significant bit first, so BitVector.from_text("110").bit(0) == 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "BitVector",
    "SegmentLayout",
    "bit_vectors",
    "xor",
    "xor_all",
    "concat_secrets",
    "split",
    "parity_census",
]

PARITY_CENSUS_CAP = 24


@dataclass(frozen=True)
class BitVector:
    """Fixed-length vector of bits, stored as an int bitset."""

    value: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("length must be >= 0")
        if not 0 <= self.value < (1 << self.length):
            raise ValueError(f"value {self.value} does not fit in {self.length} bits")

    @classmethod
    def from_text(cls, text: str) -> "BitVector":
        """Parse a most-significant-first string of 0s and 1s."""
        if text and set(text) - {"0", "1"}:
            raise ValueError(f"not a bit string: {text!r}")
        return cls(int(text, 2) if text else 0, len(text))

    @classmethod
    def zeros(cls, length: int) -> "BitVector":
        return cls(0, length)

    def bit(self, j: int) -> int:
        if not 0 <= j < self.length:
            raise IndexError(f"bit index {j} out of range for length {self.length}")
        return (self.value >> j) & 1

    def bits(self) -> tuple[int, ...]:
        """All bits, least significant first."""
        return tuple((self.value >> j) & 1 for j in range(self.length))

    def __len__(self) -> int:
        return self.length

    def __str__(self) -> str:
        return format(self.value, f"0{self.length}b") if self.length else ""

    def __xor__(self, other: "BitVector") -> "BitVector":
        return xor(self, other)


def bit_vectors(bits: np.ndarray) -> list[BitVector]:
    """One vector per row of a (rows, length) bit array, column j as bit j."""
    packed = np.packbits(bits.astype(bool), axis=1, bitorder="little")
    return [BitVector(int.from_bytes(row.tobytes(), "little"), bits.shape[1]) for row in packed]


def xor(x: BitVector, y: BitVector) -> BitVector:
    if x.length != y.length:
        raise ValueError(f"length mismatch: {x.length} vs {y.length}")
    return BitVector(x.value ^ y.value, x.length)


def xor_all(vectors: Sequence[BitVector]) -> BitVector:
    """Fold xor over a non-empty sequence of equal-length vectors."""
    if not vectors:
        raise ValueError("cannot xor an empty sequence")
    out = vectors[0]
    for v in vectors[1:]:
        out = xor(out, v)
    return out


@dataclass(frozen=True)
class SegmentLayout:
    """Segment lengths of a concatenated payload, agent 0 first; segment 0
    sits in the least significant positions."""

    lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.lengths:
            raise ValueError("layout needs at least one segment")
        if any(m < 1 for m in self.lengths):
            raise ValueError("every segment must have length >= 1")

    @property
    def total(self) -> int:
        return sum(self.lengths)

    @property
    def segments(self) -> int:
        return len(self.lengths)


def concat_secrets(secrets: Sequence[BitVector]) -> tuple[BitVector, SegmentLayout]:
    """Concatenate per-agent secrets into one payload.

    Agent 0's secret occupies the least significant positions, so the textual
    form reads agent n-2 down to agent 0 left to right.
    """
    if not secrets:
        raise ValueError("need at least one secret")
    if any(s.length == 0 for s in secrets):
        raise ValueError("every secret must be non-empty")
    layout = SegmentLayout(tuple(s.length for s in secrets))
    value = 0
    shift = 0
    for s in secrets:
        value |= s.value << shift
        shift += s.length
    return BitVector(value, shift), layout


def split(v: BitVector, layout: SegmentLayout) -> tuple[BitVector, ...]:
    """Every segment of a payload-length vector, segment 0 first."""
    if v.length != layout.total:
        raise ValueError(f"vector length {v.length} does not match layout total {layout.total}")
    out = []
    value = v.value
    for m in layout.lengths:
        out.append(BitVector(value & ((1 << m) - 1), m))
        value >>= m
    return tuple(out)


def parity_census(c: BitVector) -> tuple[int, int]:
    """Count how many x in {0,1}^m give c.x = 0 and c.x = 1.

    Enumerates the full domain, so m is capped at PARITY_CENSUS_CAP.
    """
    m = c.length
    if m > PARITY_CENSUS_CAP:
        raise ValueError(f"m={m} exceeds census cap {PARITY_CENSUS_CAP}")
    ones = 0
    chunk = 1 << 20
    for start in range(0, 1 << m, chunk):
        stop = min(start + chunk, 1 << m)
        x = np.arange(start, stop, dtype=np.uint32)
        ones += int((np.bitwise_count(x & np.uint32(c.value)) & 1).sum())
    return ((1 << m) - ones, ones)
