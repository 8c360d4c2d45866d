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

After a stack of runs, eve_postprocess combines whatever Eve measured in
transit, one late Hadamard-basis measurement of the ancillas she kept, and
everything that crossed the public classical channel into her best guess of
every run's payload, as whole-array operations over the stack; bits she has
no handle on, every bit of an intercept_replace run among them, are fair coin
flips from each run's own generator. A lone run is a stack of one. Eve draws
only from that generator, the second one spawned from a run's seed; the
protocol's draws are made by distribution.build_plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bitvec import BitVector, SegmentLayout
from .statevec import (
    append_rows,
    cnot_rows,
    ghz_row,
    measure_rows,
    outcome_law,
    pick_from,
    prepare_basis,
    swap_rows,
    width,
)

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
    """Eve's bookkeeping for a stack's tuple stream, one row per stream position.

    A record covers its whole stack and is never cut per run: a lone run's
    is the record of its stack of one. targets lists the attacked agent
    slots, one column each. hadamard and outcomes hold her in-transit
    measurements, one row per tuple: which qubits she measured in the
    Hadamard basis, and what she read. For the runs that got through
    decryption, final_states and final_index hold what is left of their
    information tuples, run after run, in the stream's form: the j-th of
    them is in final_states[final_index[j]], the qubits Eve kept, qubit
    n + i of the tuple as qubit i of the row. eve_postprocess measures
    kept ancillas there in one call per stack.
    """

    strategy: EveStrategy
    targets: tuple[int, ...] = ()
    hadamard: np.ndarray | None = None
    outcomes: np.ndarray | None = None
    final_states: np.ndarray | None = None
    final_index: np.ndarray | None = None


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

    # both other attacks append a fresh register of Eve's and apply one gate
    # between target slot j and its qubit n + j: intercept_replace swaps the
    # target out for a qubit of her own GHZ tuple, entangle_ancilla copies it
    # onto a zero ancilla with a CNOT
    if strategy.tag == INTERCEPT_REPLACE:
        register, gate = ghz_row(n), swap_rows
    else:
        register, gate = prepare_basis(BitVector.zeros(k)), cnot_rows
    joint = append_rows(states, register)
    for j, slot in enumerate(targets):
        joint = gate(joint, slot, n + j)
    return joint, index, record


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
    record: EveRecord,
    layout: SegmentLayout,
    is_decoy: np.ndarray,
    passed: np.ndarray,
    payload: np.ndarray,
    entries: np.ndarray,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Eve's best reconstruction of the payload of every run of a stack.

    Works from her in-transit record of the stack, one late measurement of
    what she kept, and the public classical traffic: every run's decoy
    positions (is_decoy, a (runs, m + d) mask), which runs passed
    validation, and the payload the passing runs sent, one row each (see
    protocol.classical_exchange), with the register entries it was cut from
    (see protocol.exchange_entries). Returns a (runs, m) bit array: row t is
    run t's guess of the payload, which layout splits into one guess per
    agent. Bits she has no handle on are fair coins, drawn from run t's own
    generator rngs[t] in payload order. All of them are coins when the run
    aborted, since no exchange traffic exists; when Eve is inactive, since
    she holds no records; and for intercept_replace, whose kept qubits carry
    GHZ branch labels with no dependence on the embedded payload.
    """
    m, tag = layout.total, record.strategy.tag
    guesses = np.empty((len(rngs), m), dtype=np.int64)
    reads = passed & (tag in (MEASURE_RESEND, ENTANGLE_ANCILLA))
    for t in np.flatnonzero(~reads):
        guesses[t] = rngs[t].integers(0, 2, size=m)
    if not reads.any():
        return guesses
    readers = [rngs[t] for t in np.flatnonzero(passed)]

    # known holds the fold of every public share of each payload position:
    # n - 1 parties send it, all but its owner, whose withheld bit it lacks
    by_position = payload[:, np.argsort(entries % m, kind="stable")]
    known = np.bitwise_xor.reduce(by_position.reshape(len(readers), m, -1), axis=2)

    if tag == ENTANGLE_ANCILLA:
        # the ancillas extend every tuple to a larger GHZ state, so the
        # parity of all Hadamard outcomes, hers included, equals the payload
        # bit; the known fold still lacks the owner's withheld register bit.
        # One measurement serves every passing run, each with its own draws.
        u = np.concatenate([r.random(m) for r in readers])
        law = outcome_law(record.final_states, range(len(record.targets)), True)
        bits = pick_from(law, record.final_index, u)
        leaked = np.ones(known.shape, dtype=bool)
        eve_bits = (bits.sum(axis=1) & 1).reshape(known.shape)
    else:
        # a qubit resent in the Hadamard basis passes decryption unchanged,
        # so its owner's register bit equals Eve's outcome; info holds the
        # record rows of every passing run's information tuples
        info = np.flatnonzero((~is_decoy & passed[:, None]).ravel()).reshape(known.shape)
        col = np.full(layout.segments, -1)
        col[list(record.targets)] = np.arange(len(record.targets))
        owner_col = np.repeat(col, layout.lengths)
        leaked = (owner_col >= 0) & record.hadamard[info, owner_col]
        eve_bits = record.outcomes[info, owner_col]
        for blind, bits, r in zip(~leaked, eve_bits, readers):
            bits[blind] = r.integers(0, 2, size=int(np.count_nonzero(blind)))

    # a leaked bit is the known fold xor Eve's bit, any other bit her coin
    guesses[passed] = known & leaked ^ eve_bits
    return guesses
