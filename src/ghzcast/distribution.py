"""Preparation and distribution of the entangled tuple stream.

The broker prepares one n-qubit GHZ tuple per payload bit plus d decoy tuples
of independently random plus/minus qubits, interleaves them uniformly at
random, keeps qubit n-1 of every tuple and sends qubit i of every tuple to
agent i. Decoy positions and preparations are recorded so the validation
stage can compare reported outcomes against them.

The stream is one (m + d, 2**n) batch with one tuple per row in transmission
order. Tuples are never entangled with each other, so rows stay separate
states rather than one joint register, which keeps memory linear in the
stream length; the joint picture is recovered exactly by the analysis
oracles. A plan stacks the streams of one or more independent runs, one
generator each, into one (trials * (m + d), 2**n) batch, run after run.
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

    states holds the prepared tuples, one row per stream position, and
    is_decoy marks the decoy rows; the j-th information row of a run
    carries payload bit j. signs is the broker's private record of the
    decoy preparations: row i holds the signs (0 plus, 1 minus) of the i-th
    decoy in stream order. A plan stacks the streams of its runs one after
    another, so every field counts over the whole stack and run t owns rows
    t*(m+d) .. (t+1)*(m+d)-1.
    """

    n: int
    m: int
    d: int
    is_decoy: np.ndarray
    signs: np.ndarray
    states: np.ndarray

    @property
    def trials(self) -> int:
        return self.is_decoy.size // (self.m + self.d)


def build_plan(
    m: int, d: int, n: int, rngs: Sequence[np.random.Generator], ghz: np.ndarray
) -> DistributionPlan:
    """Interleave m information tuples and d decoys uniformly at random.

    Each decoy qubit is plus or minus with probability one half. There is
    one generator per run: every run draws its own stream from its own
    generator, and the plan stacks them. ghz is prepare_ghz(n), the row
    every information tuple starts in; a caller building many plans
    prepares it once, through this module's prepare_ghz.
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
    is_decoy = np.concatenate(is_decoy)
    signs = np.concatenate(signs)

    states = np.empty((is_decoy.size, 1 << n))
    states[~is_decoy] = ghz
    states[is_decoy] = hadamard_product_rows(signs)
    return DistributionPlan(n=n, m=m, d=d, is_decoy=is_decoy, signs=signs, states=states)
