"""Parties, stage names and the classical channel's traffic.

Parties are integers: agent i is i, and the broker and the broadcast
address are the negative sentinels BROKER and ALL_AGENTS. Both the
protocol, which writes transcripts, and the adversary, which reads the
public part of them, use these names; keeping them here lets both import
them without importing each other.

A run's traffic is a MessageTable: one Route per message, everything but
its payload, and the payloads as entries of one flat int array. Payloads
are data, not text: decoy outcomes and exchanged register segments are
bits, decoy positions and segment lengths are ints. Iterating a table
yields each message as its route and its payload entries.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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


class Route(NamedTuple):
    """A message's routing: everything but its payload."""

    stage: str
    sender: int
    receiver: int
    label: str
    segment_index: int | None = None


@dataclass(frozen=True, eq=False)
class MessageTable:
    """Messages in sending order as columns.

    routes holds one Route per message. Row i's payload is payload[ends[i
    - 1]:ends[i]], from 0 for row 0: the bits of a bit vector, bit 0
    first, or the ints of a segment length or decoy position list.
    Iterating yields every row as its route and payload entries, in order.
    The arrays may be shared with the tables of other runs, so a table
    makes them read-only.
    """

    routes: tuple[Route, ...]
    ends: np.ndarray
    payload: np.ndarray

    def __post_init__(self) -> None:
        self.ends.flags.writeable = False
        self.payload.flags.writeable = False

    def __iter__(self) -> Iterator[tuple[Route, np.ndarray]]:
        ends = self.ends.tolist()
        for r, start, end in zip(self.routes, [0, *ends], ends):
            yield r, self.payload[start:end]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MessageTable):
            return NotImplemented
        return (
            self.routes == other.routes
            and np.array_equal(self.ends, other.ends)
            and np.array_equal(self.payload, other.payload)
        )
