"""Preparation and distribution of the entangled tuple stream.

The broker prepares one n-qubit GHZ tuple per payload bit plus d decoy tuples
of independently random plus/minus qubits, interleaves them uniformly at
random, keeps qubit n-1 of every tuple and sends qubit i of every tuple to
agent i. Decoy positions and preparations are recorded so the validation
stage can compare reported outcomes against them.

A plan is those draws alone: the interleaving and the decoy signs, with no
amplitudes. A decoy that nothing touches needs none: each agent measures its
qubit in the Hadamard basis it was prepared in, so the outcome is the sign
the broker recorded, and validation reads it from the plan (see
protocol.run_validation). Only a stream an adversary acts on is built as
states, by DistributionPlan.stream.

Tuples are never entangled with each other, so they stay separate states
rather than one joint register; the joint picture is recovered exactly by the
analysis oracles. A stream holds few distinct states: every information tuple
is the GHZ row, and a decoy is one of 2**n sign patterns. So the stream is
kept as its distinct states, a (U, 2**n) batch, plus one index per tuple in
transmission order naming its row. A plan stacks the streams of one or more
independent runs, one generator each, run after run; the runs share the
distinct states, and the index covers trials * (m + d) tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .statevec import hadamard_product_rows, prepare_ghz

__all__ = ["DistributionPlan", "build_plan", "prepare_ghz"]


@dataclass
class DistributionPlan:
    """Stream of m information tuples and d decoys in transmission order.

    is_decoy marks the decoy positions; the j-th information tuple of a run
    carries payload bit j. signs is the broker's private record of the decoy
    preparations: row i holds the signs (0 plus, 1 minus) of the i-th decoy
    in stream order. It is also every untouched decoy's Hadamard-basis
    outcome, so a plan holds no amplitudes; stream builds them for a stream
    an adversary acts on. A plan stacks the streams of its runs one after
    another, so every per-position field counts over the whole stack and
    run t owns positions t*(m+d) .. (t+1)*(m+d)-1.
    """

    n: int
    m: int
    d: int
    is_decoy: np.ndarray
    signs: np.ndarray

    @property
    def trials(self) -> int:
        return self.is_decoy.size // (self.m + self.d)

    def stream(self, ghz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The prepared stream as (states, index), one entry of index per position.

        states holds the distinct prepared tuples: row 0 the GHZ row ghz,
        prepare_ghz(n), then the decoy sign patterns the stack holds, each
        once, in ascending order of their packed minus masks.
        """
        n = self.n
        patterns, pattern = np.unique(self.signs @ (1 << np.arange(n)), return_inverse=True)
        decoys = hadamard_product_rows((patterns[:, None] >> np.arange(n)) & 1)
        index = np.zeros(self.is_decoy.size, dtype=np.intp)
        index[self.is_decoy] = 1 + pattern
        return np.concatenate((ghz, decoys)), index


def build_plan(m: int, d: int, n: int, rngs: Sequence[np.random.Generator]) -> DistributionPlan:
    """Interleave m information tuples and d decoys uniformly at random.

    Each decoy qubit is plus or minus with probability one half. There is
    one generator per run: every run draws its own stream from its own
    generator, the permutation then the signs, and the plan stacks them.
    """
    if m < 1:
        raise ValueError("need at least one information tuple")
    if d < 0:
        raise ValueError("decoy count must be >= 0")
    if n < 2:
        raise ValueError("need at least two parties")

    # per run: the interleaving permutation, of which the values m and up
    # mark decoys, then the decoy signs
    is_decoy = []
    signs = []
    for r in rngs:
        is_decoy.append(r.permutation(m + d) >= m)
        signs.append(r.integers(0, 2, size=(d, n)))
    return DistributionPlan(
        n=n, m=m, d=d, is_decoy=np.concatenate(is_decoy), signs=np.concatenate(signs)
    )
