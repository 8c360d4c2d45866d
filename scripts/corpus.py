"""Check that seeded outputs are unchanged over a fixed corpus of scenarios.

Usage: python scripts/corpus.py

The package must be importable (pip install -e ., or PYTHONPATH=src); the
script imports whatever ghzcast that finds, so pointing PYTHONPATH at the
src/ of another checkout checks that checkout against the same pins.

The corpus is CORPUS_SIZE scenarios drawn from one seed, CORPUS_SEED, in
five families: honest runs and the four attack shapes (measure-resend in
the computational and in a random basis, intercept-replace and
entangle-ancilla). They span n 2-14, Eve's k 1-3 on default or drawn target
slots, noise_p 0 and 0.1, d = m, 0, 1-12, 40 or 200, and thresholds
0.05-0.99, at which attacked runs pass validation and reach the closing
exchange. Attacked n is capped per family so that a tuple keeps at most
MAX_ATTACKED_QUBITS qubits, which keeps the whole corpus near 15 s. Each
scenario's trial count comes from the corpus seed and the scenario's shape
alone (n, stream length and Eve's qubits), never from how run_trials sizes
its stacks, so a change to the stack sizing leaves the cases, and so the
digests, as they are: a stacked run is its lone run. Most cases still run
more trials than one stack holds, so their experiments run several stacks,
the last one partial.

Per scenario it hashes, with repr and sha256 as tests/test_determinism.py
does, the ExperimentStats of detection_experiment with its rows, every field
of the run_protocol transcript (the comparison array raveled) and Eve's
guesses from the run's stack of one. Arrays are hashed as flat lists, so
the digests do not depend on an array's shape. A family's digest hashes its
scenarios' digests in order, and the total hashes the families'.

Prints each family's digest and the total, and exits 1 naming every family
whose digest differs from EXPECTED. A change that alters the draw order, or
any sampled outcome, on purpose updates EXPECTED in the same diff and says
so; tests/test_corpus.py pins a slice of the corpus the same way.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import astuple
from typing import NamedTuple

import numpy as np

from ghzcast import BitVector, EveStrategy, Scenario, detection_experiment, run_protocol
from ghzcast.adversary import (
    ALWAYS_COMPUTATIONAL,
    ENTANGLE_ANCILLA,
    INTERCEPT_REPLACE,
    MEASURE_RESEND,
    RANDOM_BASIS,
)
from ghzcast.protocol import run_trials

CORPUS_SEED = 20231104
CORPUS_SIZE = 300
MAX_ATTACKED_QUBITS = 14
# the work of a case's trials, roughly, and the fixed share of a run (see _draw_case)
CASE_WORK = 1 << 18
RUN_WORK = 512

# family name -> Eve's tag and basis policy, None for an honest run
FAMILIES = {
    "honest": None,
    "measure_resend/computational": (MEASURE_RESEND, ALWAYS_COMPUTATIONAL),
    "measure_resend/random": (MEASURE_RESEND, RANDOM_BASIS),
    "intercept_replace": (INTERCEPT_REPLACE, None),
    "entangle_ancilla": (ENTANGLE_ANCILLA, None),
}

EXPECTED = {
    "honest": "37652fea8320d5e1",
    "measure_resend/computational": "cf8dd4e65ffbbb38",
    "measure_resend/random": "766aede6d451dd54",
    "intercept_replace": "4bfe25c99c5cb735",
    "entangle_ancilla": "ebcd1ca639e2c24e",
}


class Case(NamedTuple):
    family: str
    scenario: Scenario
    trials: int


def _draw_case(rng: np.random.Generator, family: str) -> Case:
    attack = FAMILIES[family]
    k = int(rng.integers(1, 4))
    tag = attack[0] if attack else None
    # the widest n whose tuples stay within the cap, Eve's qubits included: she
    # appends n qubits to a tuple she intercepts and k to one she entangles
    widest = {
        None: 14,
        INTERCEPT_REPLACE: MAX_ATTACKED_QUBITS // 2,
        ENTANGLE_ANCILLA: MAX_ATTACKED_QUBITS - k,
    }.get(tag, MAX_ATTACKED_QUBITS)
    n = int(rng.integers(2 if tag is None else k + 1, widest + 1))
    secrets = tuple(
        BitVector(int(rng.integers(0, 1 << length)), length)
        for length in rng.integers(1, 4, size=n - 1).tolist()
    )
    d = (None, 0, int(rng.integers(1, 13)), 40, 200)[int(rng.integers(0, 5))]
    eve = EveStrategy()
    if attack is not None:
        targets = None
        if rng.random() < 0.5:
            targets = tuple(rng.choice(n - 1, size=k, replace=False).tolist())
        eve = EveStrategy(tag=tag, basis_policy=attack[1], k=k, targets=targets)
    scenario = Scenario(
        n=n,
        secrets=secrets,
        d=d,
        eve=eve,
        noise_p=(0.0, 0.1)[int(rng.integers(0, 2))],
        threshold_fraction=round(float(rng.uniform(0.05, 0.99)), 2),
        seed=int(rng.integers(0, 2**32)),
    )
    # the trials follow the scenario's shape alone, never run_trials' stack
    # sizing: they shrink with a run's work, a fixed share plus its stream's
    # bits when honest (an honest stack builds no state) or its stream's
    # amplitudes, Eve's qubits included, when attacked
    per_tuple = n if tag is None else 1 << scenario.tuple_qubits
    unit = max(1, CASE_WORK // (scenario.stream_length * per_tuple + RUN_WORK))
    # one to three units, drawn with one fixed-size draw so that the next
    # case's draws do not depend on the unit
    trials = unit + int(rng.random() * 2 * unit)
    return Case(family, scenario, trials)


def corpus() -> list[Case]:
    """The corpus, the families in turn, drawn from CORPUS_SEED."""
    rng = np.random.default_rng(CORPUS_SEED)
    names = list(FAMILIES)
    return [_draw_case(rng, names[i % len(names)]) for i in range(CORPUS_SIZE)]


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def case_digest(case: Case) -> str:
    scenario = case.scenario
    stats = detection_experiment(scenario, case.trials, collect_rows=True)
    transcript = run_protocol(scenario)
    report, messages = transcript.validation, transcript.messages
    registers = transcript.register_bits
    lone = next(run_trials(scenario, [scenario.seed]))
    return _digest(
        (
            astuple(stats),
            transcript.layout,
            transcript.stream_length,
            transcript.decoy_positions,
            transcript.stages,
            transcript.aborted,
            messages.routes,
            messages.ends.tolist(),
            messages.payload.tolist(),
            None if registers is None else registers.ravel().tolist(),
            transcript.recovered,
            report.wrong.ravel().tolist(),
            report.decoy_checks,
            report.errors,
            report.threshold,
            report.verdict,
            lone.guesses.ravel().tolist(),
        )
    )


def family_digests(cases: list[Case]) -> dict[str, str]:
    """Each family's digest over its cases in order, and the total as "total"."""
    per_family: dict[str, list[str]] = {}
    for case in cases:
        per_family.setdefault(case.family, []).append(case_digest(case))
    digests = {family: _digest(found) for family, found in per_family.items()}
    digests["total"] = _digest(sorted(digests.items()))
    return digests


def main() -> int:
    digests = family_digests(corpus())
    mismatched = [family for family in FAMILIES if digests[family] != EXPECTED[family]]
    for family, found in digests.items():
        mark = "MISMATCH" if family in mismatched else ""
        print(f"{family:<30} {found} {mark}".rstrip())
    for family in mismatched:
        print(f"{family}: digest {digests[family]} differs from the pinned {EXPECTED[family]}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
