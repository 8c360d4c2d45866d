"""Exact secrecy of the closing classical exchange.

The claim (Hillery, Bužek & Berthiaume, PRA 59, 1829, 1999, for the access
structure; arXiv:2311.02530 for the protocol): a coalition C of agents that
excludes agent i sees its own registers and every exchange message addressed
to a member, and that view has the same law for every value of secret i
while the other secrets stay fixed. So does a listener on the whole classical
channel. Agent i withholds its own segment i and it is uniform, so what the
others see of segment i stays independent of secret i.

Every law here is exact: joint_oracle's probabilities are dyadics, summed as
Fractions, and the messages are what protocol.classical_exchange sends along
protocol.run_routes, on every register outcome of the support.
"""

from collections import defaultdict
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from ghzcast.analysis import joint_oracle
from ghzcast.bitvec import BitVector, SegmentLayout
from ghzcast.protocol import (
    BROKER,
    STAGE_EXCHANGE,
    classical_exchange,
    exchange_entries,
    run_routes,
)

# every n >= 2 and m >= n - 1 with n * m <= 12: all ways to give n - 1 agents
# a positive segment each of an m-bit payload
SHAPES = [(n, m) for n in range(2, 13) for m in range(n - 1, 12 // n + 1)]
CHANNEL = "channel"


def compositions(m, parts):
    """Every layout of m bits into parts positive segments."""
    if parts == 1:
        yield (m,)
        return
    for first in range(1, m - parts + 2):
        for rest in compositions(m - first, parts - 1):
            yield (first, *rest)


def support(payload, n):
    """The oracle's support as (K, n, m) register bits, agent p's in row p and
    the broker's last, and each outcome's exact probability."""
    dist = joint_oracle(payload, n)
    m = payload.length
    shifts = np.arange(n * m)
    bits = (dist.keys[:, None] >> shifts) & 1
    return bits.reshape(-1, n, m), [Fraction(p) for p in dist.probs.tolist()]


def exchange_messages(registers, layout):
    """Every exchange message as its receiver and its (K, bits) payload,
    cut from classical_exchange's payload by the ends of run_routes."""
    routes, ends, opened = run_routes(layout, 0)
    payload = classical_exchange(registers, exchange_entries(layout))
    cuts = (ends[opened - 1 :] - ends[opened - 1]).tolist()
    assert cuts[-1] == payload.shape[1]
    messages = []
    for r, start, end in zip(routes[opened:], cuts, cuts[1:]):
        assert r.stage == STAGE_EXCHANGE
        messages.append((r.receiver, payload[:, start:end]))
    return messages


def law(views, probs):
    """Each distinct view row and its exact probability."""
    out = defaultdict(Fraction)
    for row, p in zip(views, probs):
        out[row.tobytes()] += p
    return dict(out)


def dependencies(n, m, leak_to=None):
    """Every (layout, agent i, view, other secrets) whose law of the view moves
    with secret i, counted once per value of secret i whose law differs from
    that of the group's first value. Views are every coalition of agents
    without i, named by its tuple of agents, and the whole channel. leak_to
    makes the exchange faulty: agent 0 also sends its withheld segment 0 to
    that party, another agent or the broker."""
    agents = range(n - 1)
    coalitions = [c for size in range(n - 1) for c in combinations(agents, size)]
    found = []
    for lengths in compositions(m, n - 1):
        layout = SegmentLayout(lengths)
        starts = np.cumsum((0, *lengths))
        laws = {}
        for value in range(1 << m):
            payload = BitVector(value, m)
            secret = np.array(payload.bits())
            registers, probs = support(payload, n)
            messages = exchange_messages(registers, layout)
            # the inverse: agent t's withheld segment t and the segment-t
            # payloads it received fold to secret t on every support key
            for t in agents:
                fold = registers[:, t, starts[t] : starts[t + 1]].copy()
                for receiver, sent in messages:
                    if receiver == t:
                        fold ^= sent
                assert (fold == secret[starts[t] : starts[t + 1]]).all()
            if leak_to is not None:
                messages.append((leak_to, registers[:, 0, : lengths[0]]))
            for c in coalitions:
                seen = [registers[:, list(c)].reshape(len(probs), -1)]
                seen += [sent for receiver, sent in messages if receiver in c]
                laws[c, value] = law(np.concatenate(seen, axis=1).astype(np.uint8), probs)
            channel = np.concatenate([sent for _, sent in messages], axis=1)
            laws[CHANNEL, value] = law(channel.astype(np.uint8), probs)
        for i in agents:
            segment = ((1 << lengths[i]) - 1) << int(starts[i])
            for view in [*(c for c in coalitions if i not in c), CHANNEL]:
                groups = defaultdict(list)
                for value in range(1 << m):
                    groups[value & ~segment].append(laws[view, value])
                for others, group in groups.items():
                    moved = sum(g != group[0] for g in group[1:])
                    found += [(lengths, i, view, others)] * moved
    return found


@pytest.mark.parametrize(("n", "m"), SHAPES)
def test_no_view_depends_on_a_secret_it_excludes(n, m):
    assert dependencies(n, m) == []


LEAKS = [(n, m, receiver) for n, m in SHAPES for receiver in (1, BROKER) if receiver < n - 1]


@pytest.mark.parametrize(
    ("n", "m", "receiver"),
    LEAKS,
    ids=[f"{n}-{m}-to-{'broker' if r == BROKER else 'agent1'}" for n, m, r in LEAKS],
)
def test_a_sent_withheld_segment_leaks_on_the_channel(n, m, receiver):
    # secret 0 leaks, but only to the whole channel: a coalition without
    # agent 0 never receives the broker's segment 0, which stays as uniform
    # as agent 0's own share was, and no agent receives the broker's messages
    found = dependencies(n, m, receiver)
    assert found
    assert {(i, view) for _, i, view, _ in found} == {(0, CHANNEL)}
