"""Run the mutation catalogue: known faults that named tests must catch.

Usage: python scripts/mutants.py

Each mutant is an exact replacement of one text in one file of the repo,
plus the test node ids expected to fail under it. The named tests of every
mutant first run once on an unmutated copy of the repo, where they must
pass. Then, for each mutant, the repo is copied to a temporary directory,
the mutant is applied there and its tests are run with pytest; the working
tree is never edited. Prints one line per mutant and
exits 1 if an old text does not occur exactly once in its file, if the
unmutated copy fails, or if a mutant survives (its tests pass) or breaks
them some other way than a failing test (a collection error, say).

A refactor that moves or rewrites a mutated text updates its mutant in the
same change; tests/test_mutants.py checks in Tier-1 that every old text
still occurs exactly once. Grounding: mutation analysis, DeMillo, Lipton &
Sayward, Hints on test data selection, IEEE Computer 11(4), 1978.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
STACKED = "tests/test_analysis.py::TestStackedRuns::test_experiment_is_the_aggregate_of_lone_runs"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    killers: tuple[str, ...]


MUTANTS = (
    Mutant(
        "plan draws the signs before the permutation",
        "src/ghzcast/distribution.py",
        "        is_decoy.append(r.permutation(m + d) >= m)\n"
        "        signs.append(r.integers(0, 2, size=(d, n)))\n",
        "        signs.append(r.integers(0, 2, size=(d, n)))\n"
        "        is_decoy.append(r.permutation(m + d) >= m)\n",
        ("tests/test_distribution.py::test_the_plan_holds_every_protocol_draw_in_order",),
    ),
    Mutant(
        "record equality skips arrays",
        "src/ghzcast/protocol.py",
        "if not (np.array_equal(mine, theirs) if arrays else mine == theirs):",
        "if not (arrays or mine == theirs):",
        ("tests/test_protocol.py::TestHonestRun::test_equality_sees_every_field",),
    ),
    Mutant(
        "exchange also sends each owner's own segment",
        "src/ghzcast/protocol.py",
        "return (rows * m + np.arange(m))[owner != rows]",
        "return (rows * m + np.arange(m)).ravel()",
        ("tests/test_secrecy.py",),
    ),
    Mutant(
        "agents send their own segment and withhold the mirrored one",
        "src/ghzcast/protocol.py",
        "owner = np.repeat(np.arange(n - 1), layout.lengths)\n",
        "owner = np.repeat(np.arange(n - 1), layout.lengths)[::-1]\n",
        ("tests/test_secrecy.py",),
    ),
    Mutant(
        "collapsed states built from the pair number",
        "src/ghzcast/statevec.py",
        "    state[pair_index] = index\n",
        # wrapped to a state that exists, so the kill is a wrong value, not an IndexError
        "    state[pair_index] = pair_index % states.shape[0]\n",
        ("tests/test_statevec.py::test_index_form_equals_the_expanded_batch",),
    ),
    Mutant(
        "Eve's measure-resend pairs keyed by the state alone",
        "src/ghzcast/adversary.py",
        "np.unique((index << k) + masks, return_inverse=True)",
        "np.unique(index << k, return_inverse=True)",
        ("tests/test_pinned_passing.py",),
    ),
    Mutant(
        "a run's coins drawn from its neighbour's generator",
        "src/ghzcast/adversary.py",
        "guesses[t] = rngs[t].integers(0, 2, size=m)",
        "guesses[t] = rngs[t - 1].integers(0, 2, size=m)",
        (STACKED,),
    ),
    Mutant(
        "the passing runs' register rows reversed",
        "src/ghzcast/protocol.py",
        "        sent = classical_exchange(registers, entries)\n",
        "        registers = registers[::-1]\n"
        "        sent = classical_exchange(registers, entries)\n",
        (STACKED,),
    ),
    Mutant(
        "an honest tuple decrypted from the law row of the other payload bit",
        "src/ghzcast/protocol.py",
        "flips = np.tile(np.array(payload.bits(), dtype=np.intp), len(u))",
        "flips = np.tile(1 - np.array(payload.bits(), dtype=np.intp), len(u))",
        ("tests/test_protocol.py::test_honest_decryption_is_the_dense_pick",),
    ),
    Mutant(
        "attacked decoys read by the agents in the computational basis",
        "src/ghzcast/protocol.py",
        "bits = pick_from(outcome_law(states, range(n - 1), True), index, draws[:, 0])",
        "bits = pick_from(outcome_law(states, range(n - 1), False), index, draws[:, 0])",
        (
            "tests/test_adversary.py::TestDisturbanceRates::test_measure_resend_random_quarter",
            "tests/test_acceptance.py::test_criterion_4_attack_error_rates",
        ),
    ),
    Mutant(
        "the closed-form GHZ row's second amplitude on the top qubit alone",
        "src/ghzcast/statevec.py",
        "row[0, [0, (1 << n) - 1]] = _SQRT_HALF",
        "row[0, [0, 1 << (n - 1)]] = _SQRT_HALF",
        ("tests/test_statevec.py::TestGhz::test_the_closed_form_row_is_prepare_ghz",),
    ),
    Mutant(
        "two basis coins swapped in _coins_then_uniform",
        "src/ghzcast/adversary.py",
        "shift = np.where(j % 2 == 1, 63, 31)",
        "shift = np.where(j % 2 == 1, 31, 63)",
        ("tests/test_adversary.py::test_random_basis_draws_match_a_per_tuple_loop",),
    ),
    Mutant(
        # a CNOT onto her GHZ member leaves every protocol qubit's outcomes
        # distributed as the swap does, so only the attacked state tells
        "intercept-replace entangles the targets instead of swapping them out",
        "src/ghzcast/adversary.py",
        "register, gate = ghz_row(n), swap_rows",
        "register, gate = ghz_row(n), cnot_rows",
        (
            "tests/test_adversary.py::TestAttackStates"
            "::test_intercept_replace_keeps_the_targeted_qubits",
        ),
    ),
    Mutant(
        "an attacked rate's Wilson radius read as its center",
        "src/ghzcast/analysis.py",
        "wilson_interval(hits, total)[1]",
        "wilson_interval(hits, total)[0]",
        (STACKED, "tests/test_determinism.py::test_experiment_stats_are_pinned"),
    ),
)


def misplaced(root: Path = ROOT) -> list[str]:
    """A line for every mutant whose old text does not occur exactly once."""
    lines = []
    for mutant in MUTANTS:
        count = (root / mutant.path).read_text().count(mutant.old)
        if count != 1:
            lines.append(f"{mutant.name}: old text occurs {count} times in {mutant.path}")
    return lines


def run_tests(mutant: Mutant | None, node_ids: list[str]) -> int:
    """pytest's exit code for node_ids on a fresh copy of the repo, with
    mutant applied to the copy unless it is None."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(
            ROOT,
            tree,
            ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"),
        )
        if mutant is not None:
            target = tree / mutant.path
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *node_ids]
        done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
        return done.returncode


def main() -> int:
    problems = misplaced()
    for line in problems:
        print(line)
    if problems:
        return 1
    killers = list(dict.fromkeys(node for m in MUTANTS for node in m.killers))
    code = run_tests(None, killers)
    if code != 0:
        print(f"the unmutated tree fails its killing tests (pytest exit {code})")
        return 1
    survivors = 0
    for mutant in MUTANTS:
        code = run_tests(mutant, list(mutant.killers))
        # pytest exits 1 when a test failed; 0 means every test passed
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"BROKEN (pytest exit {code})")
        survivors += code != 1
        print(f"{verdict:<10} {mutant.name}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
