"""Parties, stage names and the message type of the classical channel.

Both the protocol, which writes transcripts, and the adversary, which reads
the public part of them, use these names; keeping them here lets both import
them without importing each other.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "agent_name",
    "ClassicalMessage",
]

BROKER = "broker"
ALL_AGENTS = "all_agents"

STAGE_PREAMBLE = "preamble"
STAGE_DISTRIBUTION = "distribution"
STAGE_VALIDATION = "validation"
STAGE_EMBEDDING = "embedding"
STAGE_DECRYPTION = "decryption"
STAGE_EXCHANGE = "exchange"
STAGE_RECOVERY = "recovery"


def agent_name(i: int) -> str:
    return f"agent_{i}"


@dataclass(frozen=True)
class ClassicalMessage:
    stage: str
    sender: str
    receiver: str
    label: str
    payload: str
    segment_index: int | None = None
