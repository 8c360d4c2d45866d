"""The mutation catalogue of scripts/mutants.py still applies to the code.

Running the mutants reruns tests, so it stays out of Tier-1; this checks only
that every mutant's old text occurs exactly once in its file, so a change
that moves or rewrites one updates the catalogue in the same diff.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_catalogue():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_applies_exactly_once():
    catalogue = load_catalogue()
    assert catalogue.misplaced() == []
    names = [m.name for m in catalogue.MUTANTS]
    assert len(set(names)) == len(names)
    assert all(m.killers and m.old != m.new for m in catalogue.MUTANTS)
