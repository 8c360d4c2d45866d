"""Parties, stage names and the message type of the classical channel.

Parties are integers: agent i is i, and the broker and the broadcast
address are the negative sentinels BROKER and ALL_AGENTS. Payloads are
data, not text: decoy outcomes and exchanged register segments are bit
vectors, decoy positions and segment lengths are tuples of ints. Both the
protocol, which writes transcripts, and the adversary, which reads the
public part of them, use these names; keeping them here lets both import
them without importing each other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitvec import BitVector

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


@dataclass(frozen=True)
class ClassicalMessage:
    stage: str
    sender: int
    receiver: int
    label: str
    payload: BitVector | tuple[int, ...]
    segment_index: int | None = None
