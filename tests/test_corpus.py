"""A slice of the equivalence corpus of scripts/corpus.py keeps its digests.

The whole corpus takes tens of seconds, so CI runs it as its own step; this
runs every 14th scenario, 22 of them and every family, in under 2 s,
against digests pinned the same way. A change that alters seeded outputs
on purpose updates these pins with the corpus's own.
"""

import importlib.util
from pathlib import Path

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
        "honest": "2e9f882e4604c6f7",
        "measure_resend/computational": "706e6eb0154a74d9",
        "measure_resend/random": "046233cb6bd36d38",
        "intercept_replace": "bc629040a4c1d8ae",
        "entangle_ancilla": "a9bdca479bb2f467",
        "total": "aea1d9604920467b",
    }
