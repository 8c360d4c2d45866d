"""Seeded runs stay byte-identical.

The digests below were computed before the tuple stream was simulated as one
batch array; any change to the simulator that alters the draw order of the
random streams, or the outcome of any sampled measurement, changes them.
"""

import hashlib
from dataclasses import astuple, replace

import pytest

from ghzcast.adversary import (
    ALWAYS_COMPUTATIONAL,
    ENTANGLE_ANCILLA,
    INTERCEPT_REPLACE,
    MEASURE_RESEND,
    RANDOM_BASIS,
    EveStrategy,
)
from ghzcast.analysis import detection_experiment
from ghzcast.bitvec import BitVector
from ghzcast.protocol import Scenario, run_protocol

EXAMPLE_SECRETS = (BitVector.from_text("010"), BitVector.from_text("101"))
BROADCAST_SECRETS = tuple(BitVector(v, 4) for v in (3, 12, 5, 10, 6, 9, 15))

SCENARIOS = {
    "honest_n8": Scenario(n=8, secrets=BROADCAST_SECRETS, noise_p=0.02, seed=8),
    "honest_n3_d200": Scenario(n=3, secrets=EXAMPLE_SECRETS, d=200, seed=105),
    # the four attacks of criteria 5 and 6 in test_acceptance.py
    "measure_resend/computational": Scenario(
        n=3,
        secrets=EXAMPLE_SECRETS,
        d=200,
        eve=EveStrategy(tag=MEASURE_RESEND, basis_policy=ALWAYS_COMPUTATIONAL, k=1),
        seed=101,
    ),
    "measure_resend/random": Scenario(
        n=3,
        secrets=EXAMPLE_SECRETS,
        d=200,
        eve=EveStrategy(tag=MEASURE_RESEND, basis_policy=RANDOM_BASIS, k=2),
        seed=102,
    ),
    "intercept_replace": Scenario(
        n=3,
        secrets=EXAMPLE_SECRETS,
        d=200,
        eve=EveStrategy(tag=INTERCEPT_REPLACE, k=1),
        seed=103,
    ),
    "entangle_ancilla": Scenario(
        n=3,
        secrets=EXAMPLE_SECRETS,
        d=200,
        eve=EveStrategy(tag=ENTANGLE_ANCILLA, k=1),
        seed=104,
    ),
    "ancilla_d0": Scenario(
        n=3, secrets=EXAMPLE_SECRETS, d=0, eve=EveStrategy(tag=ENTANGLE_ANCILLA, k=1), seed=9
    ),
}

EXPERIMENT_TRIALS = 20
PROTOCOL_SEEDS = range(5)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def experiment_digest(scenario: Scenario) -> str:
    return _digest(astuple(detection_experiment(scenario, EXPERIMENT_TRIALS)))


def protocol_digest(scenario: Scenario) -> str:
    runs = []
    for seed in PROTOCOL_SEEDS:
        transcript = run_protocol(replace(scenario, seed=seed))
        report = transcript.validation
        recovered = None if transcript.recovered is None else [str(s) for s in transcript.recovered]
        runs.append((recovered, report.decoy_checks, report.errors, report.verdict))
    return _digest(runs)


EXPECTED_EXPERIMENT = {
    "ancilla_d0": "3dfc8ac9782eabab",
    "entangle_ancilla": "42f5fbfbfb646c80",
    "honest_n3_d200": "0d0927770e43ac2b",
    "honest_n8": "0db8592d73ea23f5",
    "intercept_replace": "1b126de3eba5443e",
    "measure_resend/computational": "6016d58d9799750c",
    "measure_resend/random": "55c4e6339272f71e",
}

EXPECTED_PROTOCOL = {
    "ancilla_d0": "67831b0a063781a2",
    "entangle_ancilla": "9ca484c7386843dc",
    "honest_n3_d200": "a4fb90d7deba61e2",
    "honest_n8": "821f706f61f47569",
    "intercept_replace": "9ca484c7386843dc",
    "measure_resend/computational": "9ca484c7386843dc",
    "measure_resend/random": "d005f7eeaf257e2f",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_experiment_stats_are_pinned(name):
    assert experiment_digest(SCENARIOS[name]) == EXPECTED_EXPERIMENT[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_protocol_runs_are_pinned(name):
    assert protocol_digest(SCENARIOS[name]) == EXPECTED_PROTOCOL[name]
