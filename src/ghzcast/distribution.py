"""Preparation and distribution of the entangled tuple stream.

The broker prepares one n-qubit GHZ tuple per payload bit plus d decoy tuples
of independently random plus/minus qubits, interleaves them uniformly at
random, keeps qubit n-1 of every tuple and sends qubit i of every tuple to
agent i. Decoy positions and preparations are recorded so the validation
stage can compare reported outcomes against them.

A plan holds every draw of a run's protocol generator, made here and
nowhere else (see build_plan for their order): the interleaving, the decoy
signs, and the uniforms of validation and decryption. It holds no
amplitudes. A decoy that nothing touches needs none: each agent measures its
qubit in the Hadamard basis it was prepared in, so the outcome is the sign
the broker recorded, and validation reads it from the plan (see
protocol.run_validation). Only a stream an adversary acts on is built as
states, by DistributionPlan.stream, which makes the GHZ row itself in
closed form (statevec.ghz_row).

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

from .statevec import ghz_row, hadamard_product_rows

__all__ = ["DistributionPlan", "build_plan"]


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
    run t owns positions t*(m+d) .. (t+1)*(m+d)-1. draws holds one row per
    run of the uniforms of validation and then of decryption (see
    build_plan).
    """

    n: int
    m: int
    d: int
    is_decoy: np.ndarray
    signs: np.ndarray
    draws: np.ndarray

    def stream(self) -> tuple[np.ndarray, np.ndarray]:
        """The prepared stream as (states, index), one entry of index per position.

        states holds the distinct prepared tuples: row 0 the GHZ row,
        statevec.ghz_row(n), then the decoy sign patterns the stack holds, each
        once, in ascending order of their packed minus masks.
        """
        n = self.n
        patterns, pattern = np.unique(self.signs @ (1 << np.arange(n)), return_inverse=True)
        decoys = hadamard_product_rows((patterns[:, None] >> np.arange(n)) & 1)
        index = np.zeros(self.is_decoy.size, dtype=np.intp)
        index[self.is_decoy] = 1 + pattern
        return np.concatenate((ghz_row(n), decoys)), index


def build_plan(m: int, d: int, n: int, rngs: Sequence[np.random.Generator]) -> DistributionPlan:
    """Interleave m information tuples and d decoys uniformly at random.

    This is the one reader of the protocol generators, one per run. Each
    run draws, in this order: permutation(m + d), whose values m and up mark
    decoys; integers(0, 2, (d, n)), the decoy signs, each plus or minus with
    probability one half; and random(d*n + m), for each decoy in stream
    order its measurement's sample and one noise draw per agent slot (see
    protocol.run_validation), then one sample per information tuple for
    decryption. An aborted run draws them all and never reads the last m.
    Eve draws from a generator of her own (see adversary).
    """
    if m < 1:
        raise ValueError("need at least one information tuple")
    if d < 0:
        raise ValueError("decoy count must be >= 0")
    if n < 2:
        raise ValueError("need at least two parties")

    is_decoy, signs, draws = [], [], []
    for r in rngs:
        is_decoy.append(r.permutation(m + d) >= m)
        signs.append(r.integers(0, 2, size=(d, n)))
        draws.append(r.random(d * n + m))
    return DistributionPlan(
        n, m, d, np.concatenate(is_decoy), np.concatenate(signs), np.stack(draws)
    )
