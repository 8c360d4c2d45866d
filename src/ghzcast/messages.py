"""Parties, stage names and the classical channel's messages.

Parties are integers: agent i is i, and the broker and the broadcast
address are the negative sentinels BROKER and ALL_AGENTS. Payloads are
data, not text: decoy outcomes and exchanged register segments are bit
vectors, decoy positions and segment lengths are tuples of ints. Both the
protocol, which writes transcripts, and the adversary, which reads the
public part of them, use these names; keeping them here lets both import
them without importing each other.

A run's traffic is held as columns, a MessageTable: one route per message,
everything but its payload, and the payloads in one flat array. The
protocol writes whole stacks of runs into such arrays, and the secrecy
check and the adversary read the routes and payload slices; a
ClassicalMessage is built only when a row is read as one.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bitvec import BitVector, bit_vectors

__all__ = [
    "BROKER",
    "ALL_AGENTS",
    "STAGE_PREAMBLE",
    "STAGE_DISTRIBUTION",
    "STAGE_VALIDATION",
    "STAGE_EMBEDDING",
    "STAGE_DECRYPTION",
    "STAGE_EXCHANGE",
    "STAGE_RECOVERY",
    "ClassicalMessage",
    "Route",
    "MessageTable",
]

BROKER = -1
ALL_AGENTS = -2

STAGE_PREAMBLE = "preamble"
STAGE_DISTRIBUTION = "distribution"
STAGE_VALIDATION = "validation"
STAGE_EMBEDDING = "embedding"
STAGE_DECRYPTION = "decryption"
STAGE_EXCHANGE = "exchange"
STAGE_RECOVERY = "recovery"
# the labels whose payload is a tuple of ints; every other payload is a bit vector
INT_PAYLOADS = ("segment_lengths", "decoy_positions")


@dataclass(frozen=True)
class ClassicalMessage:
    stage: str
    sender: int
    receiver: int
    label: str
    payload: BitVector | tuple[int, ...]
    segment_index: int | None = None


class Route(NamedTuple):
    """A message's routing: everything but its payload."""

    stage: str
    sender: int
    receiver: int
    label: str
    segment_index: int | None = None


@dataclass(frozen=True, eq=False)
class MessageTable(Sequence):
    """Messages in sending order as columns, read as ClassicalMessages.

    routes holds one Route per message. Row i's payload is payload[ends[i
    - 1]:ends[i]], from 0 for row 0: the bits of a bit vector, bit 0
    first, or the ints of a tuple for the labels in INT_PAYLOADS. Indexing
    or iterating builds the messages; rows(stage) reads routes and payload
    slices without. The arrays may be shared with the tables of other runs,
    so a table makes them read-only.
    """

    routes: tuple[Route, ...]
    ends: np.ndarray
    payload: np.ndarray

    def __post_init__(self) -> None:
        self.ends.flags.writeable = False
        self.payload.flags.writeable = False

    @classmethod
    def of(cls, messages: Iterable[ClassicalMessage]) -> MessageTable:
        """The table of the given messages."""
        messages = list(messages)
        entries = [
            list(m.payload) if m.label in INT_PAYLOADS else list(m.payload.bits())
            for m in messages
        ]
        return cls(
            routes=tuple(
                Route(m.stage, m.sender, m.receiver, m.label, m.segment_index) for m in messages
            ),
            ends=np.cumsum([len(e) for e in entries], dtype=np.int64),
            payload=np.array([x for e in entries for x in e], dtype=np.int64),
        )

    def rows(self, stage: str) -> Iterator[tuple[Route, np.ndarray]]:
        """Every message of the stage as its route and payload entries, in order."""
        ends = self.ends.tolist()
        for r, start, end in zip(self.routes, [0, *ends], ends):
            if r.stage == stage:
                yield r, self.payload[start:end]

    def __len__(self) -> int:
        return len(self.routes)

    def __getitem__(self, i: int) -> ClassicalMessage:
        try:
            i = range(len(self))[i]
        except IndexError:
            raise IndexError(f"message {i} out of range for {len(self)} messages") from None
        r = self.routes[i]
        entries = self.payload[self.ends[i - 1] if i else 0 : self.ends[i]]
        return ClassicalMessage(
            r.stage,
            r.sender,
            r.receiver,
            r.label,
            tuple(entries.tolist()) if r.label in INT_PAYLOADS else bit_vectors(entries[None])[0],
            segment_index=r.segment_index,
        )

    def __add__(self, other: MessageTable | Iterable[ClassicalMessage]) -> MessageTable:
        """These messages, then the other ones."""
        if not isinstance(other, MessageTable):
            other = MessageTable.of(other)
        base = self.ends[-1] if len(self) else 0
        return MessageTable(
            routes=self.routes + other.routes,
            ends=np.concatenate((self.ends, other.ends + base)),
            payload=np.concatenate((self.payload, other.payload)),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MessageTable):
            return NotImplemented
        return (
            self.routes == other.routes
            and np.array_equal(self.ends, other.ends)
            and np.array_equal(self.payload, other.payload)
        )
