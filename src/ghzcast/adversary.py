"""Adversary models for the transmission channel.

Eve sits on the broker-to-agent channels and processes every tuple in transit
the same way, because nothing in the stream marks which tuples are decoys.
The attack interface enforces that: attack_tuple sees only the in-flight
stream batch, never the tuple kinds or the broker's decoy records.

Three attacks are modeled:

- measure_resend: measure each targeted qubit (always in the computational
  basis, or in a basis chosen uniformly per qubit) and forward the collapsed
  qubit.
- intercept_replace: keep the targeted qubits and forward qubits of a fresh
  GHZ tuple prepared by Eve in their place.
- entangle_ancilla: apply a CNOT from each targeted qubit onto a fresh
  ancilla qubit that Eve keeps, delaying her measurement until the protocol
  has finished.

After a run, eve_postprocess combines whatever Eve measured with everything
that crossed the public classical channel and produces her best guess of each
agent's secret; bits she has no handle on are filled with fair coin flips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .bitvec import BitVector
from .statevec import (
    COMPUTATIONAL,
    HADAMARD,
    PureState,
    append_rows,
    cnot_rows,
    measure_qubits,
    measure_rows,
    prepare_basis,
    prepare_ghz,
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

    bases and outcomes hold her in-transit measurements, one row per tuple
    and one column per target slot. intercepted and ancillas map the extra
    qubit indices Eve holds in every tuple to the agent slot they relate to;
    unforwarded lists members of her replacement tuple that never left her
    lab. final_states is the stream batch after the run, so she can measure
    what she kept, and post_outcomes records those late measurements as
    stream position -> qubit -> bit.
    """

    strategy: EveStrategy
    n: int
    targets: tuple[int, ...] = ()
    bases: np.ndarray | None = None
    outcomes: np.ndarray | None = None
    intercepted: tuple[tuple[int, int], ...] = ()
    unforwarded: tuple[int, ...] = ()
    ancillas: tuple[tuple[int, int], ...] = ()
    final_states: np.ndarray | None = None
    post_outcomes: dict[int, dict[int, int]] = field(default_factory=dict)


def attack_tuple(
    strategy: EveStrategy, batch: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, EveRecord]:
    """Apply the attack to every tuple of the in-flight (T, 2**n) stream batch.

    The returned batch keeps the protocol slots on qubits 0..n-1; any qubits
    Eve retains are appended above them. Positions and kinds of tuples are
    deliberately absent from this interface: every row gets the same
    treatment.
    """
    if not strategy.active:
        raise ValueError("attack_tuple called with the inactive strategy")
    n = width(batch)
    targets = strategy.resolved_targets(n)
    k = len(targets)
    record = EveRecord(strategy=strategy, n=n, targets=targets)

    if strategy.tag == MEASURE_RESEND:
        rows = batch.shape[0]
        if strategy.basis_policy == ALWAYS_COMPUTATIONAL:
            bases = np.full((rows, k), COMPUTATIONAL)
            u = rng.random(rows)
        else:
            # per tuple: one basis coin per target, then the sample draw
            coins = np.empty((rows, k), dtype=bool)
            u = np.empty(rows)
            for t in range(rows):
                for j in range(k):
                    coins[t, j] = rng.integers(0, 2)
                u[t] = rng.random()
            bases = np.where(coins, HADAMARD, COMPUTATIONAL)
        record.bases = bases
        record.outcomes, batch = measure_rows(batch, targets, bases, u)
        return batch, record

    if strategy.tag == INTERCEPT_REPLACE:
        joint = append_rows(batch, prepare_ghz(n).amplitudes)
        for j, slot in enumerate(targets):
            joint = swap_rows(joint, slot, n + j)
        record.intercepted = tuple((n + j, slot) for j, slot in enumerate(targets))
        record.unforwarded = tuple(range(n + k, 2 * n))
        return joint, record

    if strategy.tag == ENTANGLE_ANCILLA:
        joint = append_rows(batch, prepare_basis(BitVector.zeros(k)).amplitudes)
        for j, slot in enumerate(targets):
            joint = cnot_rows(joint, slot, n + j)
        record.ancillas = tuple((n + j, slot) for j, slot in enumerate(targets))
        return joint, record

    raise AssertionError("unreachable")


def _measure_kept(
    record: EveRecord,
    pos: int,
    qubits: tuple[int, ...],
    basis: str,
    rng: np.random.Generator,
) -> dict[int, int]:
    """Measure Eve's retained qubits of one tuple, at most once."""
    outcomes = record.post_outcomes.setdefault(pos, {})
    pending = [q for q in qubits if q not in outcomes]
    if pending:
        row = record.final_states[pos]
        bits, collapsed = measure_qubits(
            PureState(row, width(row)), pending, [basis] * len(pending), rng
        )
        record.final_states[pos] = collapsed.amplitudes
        outcomes.update(zip(pending, bits))
    return outcomes


def _public_segments(transcript: "Transcript") -> tuple[dict, dict] | None:
    """Broker and agent segments that crossed the classical channel."""
    broker_segments: dict[int, BitVector] = {}
    cross_segments: dict[tuple[int, int], BitVector] = {}
    saw_exchange = False
    for msg in transcript.messages:
        if msg.stage != "exchange" or msg.segment_index is None:
            continue
        saw_exchange = True
        payload = BitVector.from_text(msg.payload)
        if msg.sender == "broker":
            broker_segments[msg.segment_index] = payload
        else:
            sender_idx = int(msg.sender.split("_")[1])
            cross_segments[(sender_idx, msg.segment_index)] = payload
    if not saw_exchange:
        return None
    return broker_segments, cross_segments


def eve_postprocess(
    record: EveRecord, transcript: "Transcript", rng: np.random.Generator
) -> tuple[BitVector, ...]:
    """Eve's best reconstruction of every agent's secret.

    Works from her in-transit records, late measurements of anything she
    kept, and all classical traffic. Aborted runs carry no exchange traffic
    and an inactive Eve holds no records, so every guessed bit is then a
    fair coin.
    """
    layout = transcript.layout
    n_agents = layout.segments
    attacked = record.final_states is not None
    public = None if transcript.aborted or not attacked else _public_segments(transcript)
    if public is None:
        # nothing to go on: every bit is a fair coin, drawn in payload order
        coins = rng.integers(0, 2, size=layout.total).tolist()
        return tuple(
            BitVector.from_bits(coins[slice(*layout.bounds(t))]) for t in range(n_agents)
        )

    broker_segments, cross_segments = public
    decoys = set(transcript.decoy_positions)
    info_positions = [p for p in range(transcript.stream_length) if p not in decoys]
    guesses: list[BitVector] = []
    for t in range(n_agents):
        lo, hi = layout.bounds(t)
        bits: list[int] = []
        for j in range(lo, hi):
            known = broker_segments[t].bit(j - lo)
            for i in range(n_agents):
                if i != t:
                    known ^= cross_segments[(i, t)].bit(j - lo)
            guess = _strategy_guess(record, info_positions[j], t, known, rng)
            if guess is None:
                guess = int(rng.integers(0, 2))
            bits.append(guess)
        guesses.append(BitVector.from_bits(bits))
    return tuple(guesses)


def _strategy_guess(
    record: EveRecord,
    pos: int,
    owner: int,
    known: int,
    rng: np.random.Generator,
) -> int | None:
    """Guess one payload bit from Eve's records of the tuple at stream
    position pos, or None for a coin flip."""
    strategy = record.strategy
    if strategy.tag == MEASURE_RESEND:
        # a qubit resent in the Hadamard basis passes decryption unchanged,
        # so its owner's register bit equals Eve's outcome
        for j, slot in enumerate(record.targets):
            if slot == owner and record.bases[pos, j] == HADAMARD:
                return known ^ int(record.outcomes[pos, j])
        return None

    if strategy.tag == ENTANGLE_ANCILLA:
        # the ancillas extend the tuple to a larger GHZ state, so the parity
        # of all Hadamard outcomes, hers included, equals the payload bit;
        # the known sum still lacks the owner's withheld register bit
        qubits = tuple(q for q, _ in record.ancillas)
        outcomes = _measure_kept(record, pos, qubits, HADAMARD, rng)
        parity = 0
        for q in qubits:
            parity ^= outcomes[q]
        return known ^ parity

    if strategy.tag == INTERCEPT_REPLACE:
        # computational outcomes of the kept qubits are branch labels with no
        # dependence on the embedded payload
        qubits = tuple(q for q, _ in record.intercepted) + record.unforwarded
        _measure_kept(record, pos, qubits, COMPUTATIONAL, rng)
        return None

    return None
