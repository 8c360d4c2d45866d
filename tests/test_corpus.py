"""A slice of the equivalence corpus of scripts/corpus.py keeps its digests.

The whole corpus takes tens of seconds, so CI runs it as its own step; this
runs every 14th scenario, 22 of them and every family, in under 2 s,
against digests pinned the same way. A change that alters seeded outputs
on purpose updates these pins with the corpus's own.
"""

import importlib.util
from pathlib import Path

from ghzcast.protocol import Scenario

ROOT = Path(__file__).resolve().parent.parent


def load_corpus():
    spec = importlib.util.spec_from_file_location("corpus", ROOT / "scripts" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_slice_of_the_corpus_keeps_its_digests():
    corpus = load_corpus()
    cases = corpus.corpus()[::14]
    assert len(cases) == 22
    assert corpus.family_digests(cases) == {
        "honest": "0e10745abe5d70c7",
        "measure_resend/computational": "034c92fdb959e0d6",
        "measure_resend/random": "5313cb441fd1aab3",
        "intercept_replace": "09b19c84a614c6d2",
        "entangle_ancilla": "e3e00959f8ce225d",
        "total": "cd77cbca2f4fabe3",
    }


def test_the_cases_do_not_depend_on_stack_sizing(monkeypatch):
    # a stacked run is its lone run, so a change to how run_trials sizes
    # its stacks must leave the corpus, and so its pins, as they are
    corpus = load_corpus()
    cases = corpus.corpus()
    per_run = Scenario.run_entries.fget
    monkeypatch.setattr(Scenario, "run_entries", property(lambda s: 2 * per_run(s)))
    assert corpus.corpus() == cases
