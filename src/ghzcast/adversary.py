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

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .bitvec import BitVector, xor_all
from .messages import STAGE_EXCHANGE
from .statevec import (
    COMPUTATIONAL,
    HADAMARD,
    append_rows,
    cnot_rows,
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
    lab. final_states holds, for a run that got through decryption, what is
    left of information tuple j in row j: the qubits Eve kept, qubit n + i
    of the tuple as qubit i of the row, so she can measure them late;
    post_outcomes records those late measurements as payload bit -> qubit ->
    bit.
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

    def run_record(self, t: int, rows: int) -> "EveRecord":
        """Record of run t, when this one covers a stack of runs of rows tuples each."""
        span = slice(t * rows, (t + 1) * rows)
        return replace(
            self,
            bases=None if self.bases is None else self.bases[span],
            outcomes=None if self.outcomes is None else self.outcomes[span],
            post_outcomes={},
        )


def attack_tuple(
    strategy: EveStrategy,
    batch: np.ndarray,
    rng: np.random.Generator | Sequence[np.random.Generator],
) -> tuple[np.ndarray, EveRecord]:
    """Apply the attack to every tuple of the in-flight (T, 2**n) stream batch.

    The returned batch keeps the protocol slots on qubits 0..n-1; any qubits
    Eve retains are appended above them. Positions and kinds of tuples are
    deliberately absent from this interface: every row gets the same
    treatment. A batch stacking the streams of several runs comes with one
    generator per run, and each run's rows draw from their own generator;
    the record then covers the whole stack.
    """
    if not strategy.active:
        raise ValueError("attack_tuple called with the inactive strategy")
    n = width(batch)
    targets = strategy.resolved_targets(n)
    k = len(targets)
    record = EveRecord(strategy=strategy, n=n, targets=targets)

    if strategy.tag == MEASURE_RESEND:
        rngs = [rng] if isinstance(rng, np.random.Generator) else rng
        rows = batch.shape[0]
        per_run = rows // len(rngs)
        if strategy.basis_policy == ALWAYS_COMPUTATIONAL:
            bases = np.full((rows, k), COMPUTATIONAL)
            u = np.concatenate([r.random(per_run) for r in rngs])
        else:
            draws = [_coins_then_uniform(r, per_run, k) for r in rngs]
            coins = np.concatenate([c for c, _ in draws])
            u = np.concatenate([x for _, x in draws])
            bases = np.where(coins, HADAMARD, COMPUTATIONAL)
        record.bases = bases
        record.outcomes, batch = measure_rows(batch, targets, bases, u)
        return batch, record

    if strategy.tag == INTERCEPT_REPLACE:
        joint = append_rows(batch, prepare_ghz(n))
        for j, slot in enumerate(targets):
            joint = swap_rows(joint, slot, n + j)
        record.intercepted = tuple((n + j, slot) for j, slot in enumerate(targets))
        record.unforwarded = tuple(range(n + k, 2 * n))
        return joint, record

    if strategy.tag == ENTANGLE_ANCILLA:
        joint = append_rows(batch, prepare_basis(BitVector.zeros(k)))
        for j, slot in enumerate(targets):
            joint = cnot_rows(joint, slot, n + j)
        record.ancillas = tuple((n + j, slot) for j, slot in enumerate(targets))
        return joint, record

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


def _measure_kept(
    record: EveRecord,
    j: int,
    qubits: tuple[int, ...],
    basis: str,
    rng: np.random.Generator,
) -> dict[int, int]:
    """Measure Eve's retained qubits of information tuple j, at most once."""
    outcomes = record.post_outcomes.setdefault(j, {})
    pending = [q for q in qubits if q not in outcomes]
    if pending:
        bits, collapsed = measure_rows(
            record.final_states[j : j + 1],
            [q - record.n for q in pending],
            [basis] * len(pending),
            np.array([rng.random()]),
        )
        record.final_states[j] = collapsed[0]
        outcomes.update(zip(pending, bits[0].tolist()))
    return outcomes


def _public_segments(transcript: "Transcript") -> dict[int, list[BitVector]]:
    """Segments of each agent's secret that crossed the classical channel,
    by segment index: the broker's and every other agent's."""
    public: dict[int, list[BitVector]] = {}
    for msg in transcript.messages:
        if msg.stage == STAGE_EXCHANGE:
            public.setdefault(msg.segment_index, []).append(msg.payload)
    return public


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
    attacked = record.strategy.active
    public = {} if transcript.aborted or not attacked else _public_segments(transcript)
    if not public:
        # nothing to go on: every bit is a fair coin, drawn in payload order
        coins = rng.integers(0, 2, size=layout.total).tolist()
        return tuple(
            BitVector.from_bits(coins[slice(*layout.bounds(t))]) for t in range(n_agents)
        )

    decoys = set(transcript.decoy_positions)
    info_positions = [p for p in range(transcript.stream_length) if p not in decoys]
    guesses: list[BitVector] = []
    for t in range(n_agents):
        lo, hi = layout.bounds(t)
        # the fold of every public share of secret t lacks only the owner's
        # withheld segment
        folded = xor_all(public[t])
        bits: list[int] = []
        for j in range(lo, hi):
            known = folded.bit(j - lo)
            guess = _strategy_guess(record, info_positions[j], j, t, known, rng)
            if guess is None:
                guess = int(rng.integers(0, 2))
            bits.append(guess)
        guesses.append(BitVector.from_bits(bits))
    return tuple(guesses)


def _strategy_guess(
    record: EveRecord,
    pos: int,
    j: int,
    owner: int,
    known: int,
    rng: np.random.Generator,
) -> int | None:
    """Guess payload bit j from Eve's records of the tuple carrying it, at
    stream position pos, or None for a coin flip."""
    strategy = record.strategy
    if strategy.tag == MEASURE_RESEND:
        # a qubit resent in the Hadamard basis passes decryption unchanged,
        # so its owner's register bit equals Eve's outcome
        for col, slot in enumerate(record.targets):
            if slot == owner and record.bases[pos, col] == HADAMARD:
                return known ^ int(record.outcomes[pos, col])
        return None

    if strategy.tag == ENTANGLE_ANCILLA:
        # the ancillas extend the tuple to a larger GHZ state, so the parity
        # of all Hadamard outcomes, hers included, equals the payload bit;
        # the known sum still lacks the owner's withheld register bit
        qubits = tuple(q for q, _ in record.ancillas)
        outcomes = _measure_kept(record, j, qubits, HADAMARD, rng)
        parity = 0
        for q in qubits:
            parity ^= outcomes[q]
        return known ^ parity

    if strategy.tag == INTERCEPT_REPLACE:
        # computational outcomes of the kept qubits are branch labels with no
        # dependence on the embedded payload
        qubits = tuple(q for q, _ in record.intercepted) + record.unforwarded
        _measure_kept(record, j, qubits, COMPUTATIONAL, rng)
        return None

    return None
