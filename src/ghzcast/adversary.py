"""Adversary models for the transmission channel.

Eve sits on the broker-to-agent channels and processes every tuple in transit
the same way, because nothing in the stream marks which tuples are decoys.
The attack interface enforces that: attack_tuple sees only the in-flight
stream, its distinct states and the index of each tuple's, never the tuple
kinds or the broker's decoy records.

Three attacks are modeled:

- measure_resend: measure each targeted qubit (always in the computational
  basis, or in a basis chosen uniformly per qubit) and forward the collapsed
  qubit.
- intercept_replace: keep the targeted qubits and forward qubits of a fresh
  GHZ tuple prepared by Eve in their place.
- entangle_ancilla: apply a CNOT from each targeted qubit onto a fresh
  ancilla qubit that Eve keeps, delaying her measurement until the protocol
  has finished.

After a run, eve_postprocess combines whatever Eve measured in transit, one
late Hadamard-basis measurement of the ancillas she kept, and everything that
crossed the public classical channel into her best guess of each agent's
secret, as whole-array operations over the payload; bits she has no handle
on, every bit of an intercept_replace run among them, are fair coin flips.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .bitvec import BitVector, bit_vectors, split
from .messages import STAGE_EXCHANGE
from .statevec import (
    append_rows,
    cnot_rows,
    measure_rows,
    prepare_basis,
    prepare_ghz,
    sample_rows,
    swap_rows,
    width,
)

if TYPE_CHECKING:  # pragma: no cover
    from .protocol import Transcript

__all__ = [
    "NONE",
    "MEASURE_RESEND",
    "INTERCEPT_REPLACE",
    "ENTANGLE_ANCILLA",
    "ALWAYS_COMPUTATIONAL",
    "RANDOM_BASIS",
    "STRATEGY_TAGS",
    "EveStrategy",
    "EveRecord",
    "attack_tuple",
    "eve_postprocess",
]

NONE = "none"
MEASURE_RESEND = "measure_resend"
INTERCEPT_REPLACE = "intercept_replace"
ENTANGLE_ANCILLA = "entangle_ancilla"
STRATEGY_TAGS = (NONE, MEASURE_RESEND, INTERCEPT_REPLACE, ENTANGLE_ANCILLA)

ALWAYS_COMPUTATIONAL = "always_computational"
RANDOM_BASIS = "random_basis"
BASIS_POLICIES = (ALWAYS_COMPUTATIONAL, RANDOM_BASIS)


@dataclass(frozen=True)
class EveStrategy:
    """Configuration of the channel adversary.

    k is the number of qubits attacked per tuple and targets names the agent
    slots they sit on; targets defaults to the k lowest slots.
    """

    tag: str = NONE
    basis_policy: str | None = None
    k: int = 1
    targets: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.tag not in STRATEGY_TAGS:
            raise ValueError(f"unknown strategy tag {self.tag!r}")
        if self.tag == MEASURE_RESEND:
            if self.basis_policy not in BASIS_POLICIES:
                raise ValueError(
                    f"measure_resend needs a basis policy from {BASIS_POLICIES}"
                )
        elif self.basis_policy is not None:
            raise ValueError(f"basis_policy is only meaningful for {MEASURE_RESEND}")
        if self.tag != NONE and self.k < 1:
            raise ValueError("k must be >= 1")

    @property
    def active(self) -> bool:
        return self.tag != NONE

    def resolved_targets(self, n: int) -> tuple[int, ...]:
        """Targeted agent slots for an n-party tuple."""
        targets = self.targets if self.targets is not None else tuple(range(self.k))
        if len(targets) != self.k:
            raise ValueError(f"expected {self.k} targets, got {len(targets)}")
        if len(set(targets)) != len(targets):
            raise ValueError("targets must be distinct")
        if any(not 0 <= t <= n - 2 for t in targets):
            raise ValueError(f"targets must be agent slots 0..{n - 2}")
        return tuple(targets)

    def extra_qubits(self, n: int) -> int:
        """Qubits Eve appends to every n-qubit tuple she attacks."""
        if self.tag == INTERCEPT_REPLACE:
            return n
        if self.tag == ENTANGLE_ANCILLA:
            return self.k
        return 0

    def validate_for(self, n: int) -> None:
        if self.active:
            if self.k > n - 1:
                raise ValueError(f"k={self.k} exceeds the {n - 1} transmitted qubits")
            self.resolved_targets(n)


@dataclass
class EveRecord:
    """Eve's bookkeeping for one tuple stream, one row per stream position.

    targets lists the attacked agent slots, one column each. hadamard and
    outcomes hold her in-transit measurements, one row per tuple: which
    qubits she measured in the Hadamard basis, and what she read. For a run
    that got through decryption, final_states and final_index hold what is
    left of its information tuples, in the stream's form: information tuple
    j is in final_states[final_index[j]], the qubits Eve kept, qubit n + i
    of the tuple as qubit i of the row. eve_postprocess measures kept
    ancillas there in one call.
    """

    strategy: EveStrategy
    targets: tuple[int, ...] = ()
    hadamard: np.ndarray | None = None
    outcomes: np.ndarray | None = None
    final_states: np.ndarray | None = None
    final_index: np.ndarray | None = None

    def run_record(self, t: int, rows: int) -> "EveRecord":
        """Record of run t, when this one covers a stack of runs of rows tuples each."""
        span = slice(t * rows, (t + 1) * rows)
        return replace(
            self,
            hadamard=None if self.hadamard is None else self.hadamard[span],
            outcomes=None if self.outcomes is None else self.outcomes[span],
        )


def attack_tuple(
    strategy: EveStrategy,
    states: np.ndarray,
    index: np.ndarray,
    rngs: Sequence[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray, EveRecord]:
    """Apply the attack to every tuple of the in-flight stream.

    The stream is its distinct (U, 2**n) states and the index of each
    tuple's (see statevec.sample_rows); returns the attacked stream in the
    same form, and the record. The attacked states keep the protocol slots
    on qubits 0..n-1; any qubits Eve retains are appended above them.
    Positions and kinds of tuples are deliberately absent from this
    interface: every tuple gets the same treatment. The stream stacks the
    streams of one or more runs and comes with one generator per run; each
    run's tuples draw from their own generator, and the record covers the
    whole stack.
    """
    if not strategy.active:
        raise ValueError("attack_tuple called with the inactive strategy")
    n = width(states)
    targets = strategy.resolved_targets(n)
    k = len(targets)
    record = EveRecord(strategy=strategy, targets=targets)

    if strategy.tag == MEASURE_RESEND:
        tuples = index.size
        per_run = tuples // len(rngs)
        if strategy.basis_policy == ALWAYS_COMPUTATIONAL:
            record.hadamard = np.zeros((tuples, k), dtype=bool)
            u = np.concatenate([r.random(per_run) for r in rngs])
        else:
            draws = [_coins_then_uniform(r, per_run, k) for r in rngs]
            record.hadamard = np.concatenate([c for c, _ in draws])
            u = np.concatenate([x for _, x in draws])
        # her bases differ between tuples: measure each distinct pair of a
        # state and a mask once, so her outputs are keyed by the state, the
        # mask and her outcome
        masks = record.hadamard @ (1 << np.arange(k))
        pairs, pair_index = np.unique((index << k) + masks, return_inverse=True)
        hadamard = (pairs[:, None] >> np.arange(k)) & 1 == 1
        record.outcomes, states, index = measure_rows(
            states[pairs >> k], pair_index, targets, hadamard, u
        )
        return states, index, record

    if strategy.tag == INTERCEPT_REPLACE:
        joint = append_rows(states, prepare_ghz(n))
        for j, slot in enumerate(targets):
            joint = swap_rows(joint, slot, n + j)
        return joint, index, record

    if strategy.tag == ENTANGLE_ANCILLA:
        joint = append_rows(states, prepare_basis(BitVector.zeros(k)))
        for j, slot in enumerate(targets):
            joint = cnot_rows(joint, slot, n + j)
        return joint, index, record

    raise AssertionError("unreachable")


def _coins_then_uniform(
    rng: np.random.Generator, tuples: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """What a loop drawing, per tuple, k rng.integers(0, 2) coins and then
    one rng.random() draws, from one call to the bit generator.

    Generator.integers(0, 2) maps a 32-bit output to its top bit. The bit
    generator makes 32-bit outputs from the low half of a fresh 64-bit
    output, or from the high half left over by the previous one; random()
    takes a fresh 64-bit output and ignores the leftover. The leftover
    state at the end is set as the loop would leave it, so later draws
    continue the same stream.
    """
    bitgen = rng.bit_generator
    before = bitgen.state
    t = np.arange(tuples)
    # whether a leftover half is waiting when tuple t starts
    leftover = before["has_uint32"] ^ (t & 1) * (k & 1)
    fresh = (k - leftover + 1) // 2
    used = np.cumsum(fresh + 1)
    # two slots in front: the leftover half from before the call, as the
    # high half of a word, and a dummy for the uniform before tuple 0
    head = np.array([before["uinteger"] << 32, 0], dtype=np.uint64)
    words = np.concatenate((head, bitgen.random_raw(int(used[-1]) if tuples else 0)))
    start = used - fresh + 1
    u = (words[start + fresh] >> np.uint64(11)) * (1.0 / 9007199254740992.0)
    # coin i of tuple t: a waiting leftover is the high half of the last
    # coin word of the tuple before, two words back; the others take
    # fresh words, low half first
    j = np.arange(k) - leftover[:, None]
    word = np.where(j < 0, start[:, None] - 2, start[:, None] + j // 2)
    shift = np.where(j % 2 == 1, 63, 31).astype(np.uint64)
    coins = (words[word] >> shift) & np.uint64(1) == 1
    if tuples:
        after = bitgen.state
        after["has_uint32"] = int(before["has_uint32"] ^ (tuples & 1) * (k & 1))
        if after["has_uint32"]:
            after["uinteger"] = int(words[-2] >> np.uint64(32))
        bitgen.state = after
    return coins, u


def eve_postprocess(
    record: EveRecord, transcript: "Transcript", rng: np.random.Generator
) -> tuple[BitVector, ...]:
    """Eve's best reconstruction of every agent's secret.

    Works from her in-transit records, one late measurement of what she
    kept, and all classical traffic, in one pass over the payload. Bits she
    has no handle on are fair coins, drawn in payload order. All of them
    are coins when the run aborted, since no exchange traffic exists; when
    Eve is inactive, since she holds no records; and for intercept_replace,
    whose kept qubits carry GHZ branch labels with no dependence on the
    embedded payload.
    """
    layout = transcript.layout
    m = layout.total
    tag = record.strategy.tag
    if transcript.aborted or tag in (NONE, INTERCEPT_REPLACE):
        return split(bit_vectors(rng.integers(0, 2, size=m)[None])[0], layout)

    # the fold of every public share of secret t lacks only the owner's
    # withheld segment; known holds those folds at their payload positions
    starts = (0, *accumulate(layout.lengths))
    known = np.zeros(m, dtype=np.int64)
    for r, bits in transcript.messages:
        if r.stage == STAGE_EXCHANGE:
            known[starts[r.segment_index] : starts[r.segment_index + 1]] ^= bits

    if tag == ENTANGLE_ANCILLA:
        # the ancillas extend every tuple to a larger GHZ state, so the
        # parity of all Hadamard outcomes, hers included, equals the payload
        # bit; the known fold still lacks the owner's withheld register bit
        k = len(record.targets)
        bits, _, _ = sample_rows(
            record.final_states, record.final_index, range(k), True, rng.random(m)
        )
        leaked = np.ones(m, dtype=bool)
        eve_bits = bits.sum(axis=1) & 1
    else:
        # a qubit resent in the Hadamard basis passes decryption unchanged,
        # so its owner's register bit equals Eve's outcome
        info = np.delete(np.arange(transcript.stream_length), transcript.decoy_positions)
        col = np.full(layout.segments, -1)
        col[list(record.targets)] = np.arange(len(record.targets))
        owner_col = np.repeat(col, layout.lengths)
        leaked = (owner_col >= 0) & record.hadamard[info, owner_col]
        eve_bits = record.outcomes[info, owner_col]
        eve_bits[~leaked] = rng.integers(0, 2, size=m - int(np.count_nonzero(leaked)))

    # a leaked bit is the known fold xor Eve's bit, any other bit her coin
    return split(bit_vectors((known & leaked ^ eve_bits)[None])[0], layout)
