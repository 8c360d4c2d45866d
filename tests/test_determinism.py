"""Seeded runs stay byte-identical.

The protocol and experiment digests below were computed before the tuple
stream was simulated as one batch array; any change to the simulator that
alters the draw order of the random streams, or the outcome of any sampled
measurement, changes them. The oracle digests were computed before the
oracles were vectorised: the sampler's keys and the factorized oracle's
entries, in insertion order, must not move.
"""

import hashlib
from dataclasses import astuple, replace

import numpy as np
import pytest

from ghzcast.adversary import (
    ALWAYS_COMPUTATIONAL,
    ENTANGLE_ANCILLA,
    INTERCEPT_REPLACE,
    MEASURE_RESEND,
    RANDOM_BASIS,
    EveStrategy,
)
from ghzcast.analysis import analytic_sample_keys, detection_experiment, factorized_oracle
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

# (n, m, payload value); four of the sampler shapes fill n*m = 20
SAMPLER_SHAPES = ((2, 1, 1), (3, 4, 9), (2, 10, 613), (4, 5, 22), (5, 4, 7), (10, 2, 2))
SAMPLER_COUNT = 1000
FACTORIZED_SHAPES = ((2, 3, 5), (3, 2, 1), (4, 3, 6), (6, 2, 3), (5, 4, 11))


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


def sampler_digest(n: int, m: int, value: int) -> str:
    rng = np.random.default_rng(1000 * n + m)
    keys = analytic_sample_keys(BitVector(value, m), n, rng, SAMPLER_COUNT)
    return _digest((str(keys.dtype), keys.tolist()))


def factorized_digest(n: int, m: int, value: int) -> str:
    return _digest(list(factorized_oracle(BitVector(value, m), n).entries.items()))


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


EXPECTED_SAMPLER = {
    (2, 1, 1): "6b8d2868c6161d42",
    (3, 4, 9): "9fc6049225c53caa",
    (2, 10, 613): "0b7b1eb4520931d9",
    (4, 5, 22): "879c6903e065171a",
    (5, 4, 7): "07847bf463fc4f96",
    (10, 2, 2): "e3b34c0c4164ff12",
}

EXPECTED_FACTORIZED = {
    (2, 3, 5): "0eb3dc9599bafbcc",
    (3, 2, 1): "9807fe6f1003c3cf",
    (4, 3, 6): "6178748ea221afad",
    (6, 2, 3): "7d6aeb50af427627",
    (5, 4, 11): "9878e7e3f35b9783",
}


@pytest.mark.parametrize("shape", SAMPLER_SHAPES)
def test_sampler_keys_are_pinned(shape):
    assert sampler_digest(*shape) == EXPECTED_SAMPLER[shape]


@pytest.mark.parametrize("shape", FACTORIZED_SHAPES)
def test_factorized_entries_are_pinned(shape):
    assert factorized_digest(*shape) == EXPECTED_FACTORIZED[shape]
