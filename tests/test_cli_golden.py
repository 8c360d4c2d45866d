"""CLI reports on the bundled scenarios stay byte-identical.

tests/golden holds the stdout of run, experiment --trials 200 and
distribution on every scenarios/*.yaml, and EXIT_CODES their exit codes.
Any change to the simulator that moves a sampled outcome, a statistic or
the report format shows up here as a diff against a readable file. To
regenerate after an intended change: python tests/test_cli_golden.py.
"""

import contextlib
import io
from pathlib import Path

import pytest

from ghzcast.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
COMMANDS = {
    "run": (),
    "experiment": ("--trials", "200"),
    "distribution": (),
}
SCENARIOS = (
    "entangle_ancilla",
    "intercept_replace",
    "measure_resend",
    "noisy_channel",
    "three_party",
)

EXIT_CODES = {
    ("entangle_ancilla", "run"): 2,
    ("entangle_ancilla", "experiment"): 0,
    ("entangle_ancilla", "distribution"): 0,
    ("intercept_replace", "run"): 2,
    ("intercept_replace", "experiment"): 0,
    ("intercept_replace", "distribution"): 0,
    ("measure_resend", "run"): 2,
    ("measure_resend", "experiment"): 0,
    ("measure_resend", "distribution"): 0,
    ("noisy_channel", "run"): 0,
    ("noisy_channel", "experiment"): 0,
    # its support of 2^36 outcomes is over both oracle caps
    ("noisy_channel", "distribution"): 64,
    ("three_party", "run"): 0,
    ("three_party", "experiment"): 0,
    ("three_party", "distribution"): 0,
}


def cli_output(scenario: str, command: str) -> tuple[int, str]:
    """Exit code and stdout of one command on one bundled scenario."""
    path = ROOT / "scenarios" / f"{scenario}.yaml"
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, str(path), *COMMANDS[command]])
    return code, out.getvalue()


def golden_path(scenario: str, command: str) -> Path:
    return GOLDEN_DIR / f"{scenario}.{command}.txt"


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_cli_output_matches_golden(scenario, command):
    code, stdout = cli_output(scenario, command)
    assert code == EXIT_CODES[(scenario, command)]
    assert stdout == golden_path(scenario, command).read_text()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for scenario in SCENARIOS:
        for command in COMMANDS:
            code, stdout = cli_output(scenario, command)
            golden_path(scenario, command).write_text(stdout)
            print(f"{scenario} {command}: exit {code}")
