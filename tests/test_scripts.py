"""Smoke tests of the scripts under scripts/, which import the package top level."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.mark.parametrize(
    "argv, header",
    [
        (
            ["scripts/attack_sweep.py", "--trials", "2", "--d", "4"],
            ["strategy abort qubit_err tuple_err eve_acc", "-" * 65],
        ),
        (
            ["scripts/distribution_histogram.py", "--runs", "20"],
            ["payload 101010, 4096 outcomes in the exact support", "20 runs, 0 outcomes off support"],
        ),
    ],
    ids=["attack_sweep", "distribution_histogram"],
)
def test_script_runs_and_prints_its_header(argv, header):
    lines = run_script(*argv)
    assert [" ".join(line.split()) for line in lines[:2]] == header
    assert len(lines) > 3
