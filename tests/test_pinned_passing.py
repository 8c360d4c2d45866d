"""Seeded runs that pass validation while attacked stay byte-identical.

The attacked scenarios pinned in test_determinism.py abort almost every run
at validation, so their digests never reach Eve's collapsed rows, the
embedding, the decryption or the exchange of an attacked stream. These
scenarios use a threshold loose enough that attacked runs pass and go all
the way through. The experiment and protocol digests follow the recipe of
test_determinism.py; the run digest also pins, per seed, the validation
errors of every agent slot, the measured registers and Eve's guesses.
"""

import hashlib
from dataclasses import replace

import pytest

from ghzcast.adversary import (
    ALWAYS_COMPUTATIONAL,
    ENTANGLE_ANCILLA,
    INTERCEPT_REPLACE,
    MEASURE_RESEND,
    RANDOM_BASIS,
    EveStrategy,
)
from ghzcast.bitvec import BitVector
from ghzcast.protocol import Scenario, execute_run
from test_determinism import PROTOCOL_SEEDS, experiment_digest, protocol_digest

EXAMPLE_SECRETS = (BitVector.from_text("010"), BitVector.from_text("101"))
FIVE_PARTY_SECRETS = tuple(BitVector(v, 3) for v in (5, 2, 7, 0))

SCENARIOS = {
    "measure_resend/computational": Scenario(
        n=3,
        secrets=EXAMPLE_SECRETS,
        d=12,
        eve=EveStrategy(tag=MEASURE_RESEND, basis_policy=ALWAYS_COMPUTATIONAL, k=1),
        threshold_fraction=0.99,
        seed=201,
    ),
    "measure_resend/random": Scenario(
        n=3,
        secrets=EXAMPLE_SECRETS,
        d=12,
        eve=EveStrategy(tag=MEASURE_RESEND, basis_policy=RANDOM_BASIS, k=2),
        threshold_fraction=0.99,
        seed=202,
    ),
    "intercept_replace": Scenario(
        n=3,
        secrets=EXAMPLE_SECRETS,
        d=12,
        eve=EveStrategy(tag=INTERCEPT_REPLACE, k=1),
        threshold_fraction=0.99,
        seed=203,
    ),
    "entangle_ancilla": Scenario(
        n=3,
        secrets=EXAMPLE_SECRETS,
        d=12,
        eve=EveStrategy(tag=ENTANGLE_ANCILLA, k=1),
        threshold_fraction=0.99,
        seed=204,
    ),
    # attacked on two of four agent slots with noisy reports: some runs
    # pass and some abort at the default threshold
    "n5_random_k2_noisy": Scenario(
        n=5,
        secrets=FIVE_PARTY_SECRETS,
        d=12,
        eve=EveStrategy(tag=MEASURE_RESEND, basis_policy=RANDOM_BASIS, k=2),
        noise_p=0.1,
        threshold_fraction=0.25,
        seed=205,
    ),
}


def run_digest(scenario: Scenario) -> str:
    runs = []
    for seed in PROTOCOL_SEEDS:
        outcome = execute_run(replace(scenario, seed=seed))
        transcript = outcome.transcript
        bits = transcript.register_bits
        runs.append(
            (
                transcript.validation.wrong.sum(axis=0).tolist(),
                None if bits is None else bits.tolist(),
                [str(g) for g in outcome.eve_guesses()],
            )
        )
    return hashlib.sha256(repr(runs).encode()).hexdigest()[:16]


EXPECTED_EXPERIMENT = {
    "entangle_ancilla": "1fcee80feb5249d1",
    "intercept_replace": "0224ddd4c1cd6a84",
    "measure_resend/computational": "f253b542ef170241",
    "measure_resend/random": "14e5e7af6af0f418",
    "n5_random_k2_noisy": "77b144f9cfd0b9b6",
}

# the three k=1 attacks share a digest: every run recovers the secrets and
# counts the same errors, which is why the run digest pins more
EXPECTED_PROTOCOL = {
    "entangle_ancilla": "8af824f3a436a25d",
    "intercept_replace": "8af824f3a436a25d",
    "measure_resend/computational": "8af824f3a436a25d",
    "measure_resend/random": "fa1994ff55ca7515",
    "n5_random_k2_noisy": "8e3a80d6544ea206",
}

EXPECTED_RUN = {
    "entangle_ancilla": "4a72ef96c841ac42",
    "intercept_replace": "1e016ac3e14b5c05",
    "measure_resend/computational": "5bb0d39ba96b6c9a",
    "measure_resend/random": "7c7510dce3cc324c",
    "n5_random_k2_noisy": "c95dad0cb757f961",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_experiment_stats_are_pinned(name):
    assert experiment_digest(SCENARIOS[name]) == EXPECTED_EXPERIMENT[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_protocol_runs_are_pinned(name):
    assert protocol_digest(SCENARIOS[name]) == EXPECTED_PROTOCOL[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_records_are_pinned(name):
    assert run_digest(SCENARIOS[name]) == EXPECTED_RUN[name]


def test_the_pinned_runs_reach_the_exchange():
    # a pin that only ever sees aborted runs would not cover the stages
    # after validation; the noisy five-party scenario also aborts
    aborted = {
        name: [execute_run(replace(scenario, seed=seed)).transcript.aborted for seed in PROTOCOL_SEEDS]
        for name, scenario in SCENARIOS.items()
    }
    assert all(not all(runs) for runs in aborted.values())
    assert any(aborted["n5_random_k2_noisy"])
