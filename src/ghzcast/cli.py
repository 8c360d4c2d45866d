"""Command-line front end: scenario files in, deterministic reports out.

Scenario files are YAML mappings with the keys n, pivs, d, eve (strategy,
basis_policy, k, targets), noise_p, threshold_fraction, seed and trials;
unknown keys are rejected. pivs entries are most-significant-first bit
strings and must be quoted so the YAML loader keeps them textual.

Reports are hierarchical key/value text on stdout and are byte-identical
for identical (scenario file, seed) pairs; per-trial and per-outcome tables
go to CSV side files via --output. Exit codes: 0 success, 2 validation
abort, 3 recovery mismatch, 64 usage or parse error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from .adversary import EveStrategy
from .analysis import (
    FACTORIZED_FREE_BIT_CAP,
    FACTORIZED_PARTY_CAP,
    JOINT_ORACLE_QUBIT_CAP,
    _check_factorized_size,
    analytic_sample_keys,
    detection_experiment,
    factorized_oracle,
    joint_oracle,
    sample_pvalue,
    support_violations,
)
from .bitvec import BitVector, concat_secrets
from .protocol import Scenario, run_protocol

__all__ = ["main", "load_scenario_file", "ScenarioError"]

SCENARIO_DIR_ENV = "GHZCAST_SCENARIO_DIR"
DEFAULT_TRIALS = 1000

SCENARIO_KEYS = {
    "n",
    "pivs",
    "d",
    "eve",
    "noise_p",
    "threshold_fraction",
    "seed",
    "trials",
}
EVE_KEYS = {"strategy", "basis_policy", "k", "targets"}

EXIT_OK = 0
EXIT_ABORT = 2
EXIT_MISMATCH = 3
EXIT_USAGE = 64


class ScenarioError(Exception):
    """Raised for malformed or inconsistent scenario files and unwritable
    output paths."""


def resolve_scenario_path(raw: str) -> Path:
    path = Path(raw)
    if path.exists():
        return path
    env_dir = os.environ.get(SCENARIO_DIR_ENV)
    if env_dir and not path.is_absolute():
        candidate = Path(env_dir) / raw
        if candidate.exists():
            return candidate
    return path


def _expect_int(doc: dict, key: str, default: int | None) -> int | None:
    if key not in doc:
        return default
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"key {key!r} must be an integer, got {value!r}")
    return value


def _expect_float(doc: dict, key: str, default: float) -> float:
    if key not in doc:
        return default
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"key {key!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ScenarioError(f"key {key!r} does not fit in a float") from None


def _parse_eve(doc: object) -> EveStrategy:
    if doc is None:
        return EveStrategy()
    if not isinstance(doc, dict):
        raise ScenarioError("key 'eve' must be a mapping")
    unknown = set(doc) - EVE_KEYS
    if unknown:
        raise ScenarioError(f"unknown eve keys: {sorted(unknown)}")
    tag = doc.get("strategy", "none")
    if not isinstance(tag, str):
        raise ScenarioError(f"eve.strategy must be a string, got {tag!r}")
    basis_policy = doc.get("basis_policy")
    if basis_policy is not None and not isinstance(basis_policy, str):
        raise ScenarioError(f"eve.basis_policy must be a string, got {basis_policy!r}")
    k = _expect_int(doc, "k", 1)
    targets = doc.get("targets")
    if targets is not None:
        if not isinstance(targets, list) or not all(
            isinstance(t, int) and not isinstance(t, bool) for t in targets
        ):
            raise ScenarioError("eve.targets must be a list of integers")
        targets = tuple(targets)
    try:
        return EveStrategy(tag=tag, basis_policy=basis_policy, k=k, targets=targets)
    except ValueError as exc:
        raise ScenarioError(f"bad eve configuration: {exc}") from exc


def load_scenario_file(path: Path) -> tuple[Scenario, int]:
    """Parse a scenario file; returns the scenario and its trial count."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ScenarioError(f"parse error in {path}{where}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: scenario must be a mapping of keys")

    unknown = set(doc) - SCENARIO_KEYS
    if unknown:
        raise ScenarioError(f"unknown keys: {sorted(unknown)}")
    if "n" not in doc or "pivs" not in doc:
        raise ScenarioError("keys 'n' and 'pivs' are required")

    n = _expect_int(doc, "n", None)
    raw_pivs = doc["pivs"]
    if not isinstance(raw_pivs, list) or not raw_pivs:
        raise ScenarioError("key 'pivs' must be a non-empty list of bit strings")
    secrets = []
    for idx, entry in enumerate(raw_pivs):
        if not isinstance(entry, str):
            raise ScenarioError(
                f"pivs[{idx}] must be a quoted bit string, got {entry!r}"
            )
        try:
            secrets.append(BitVector.from_text(entry))
        except ValueError as exc:
            raise ScenarioError(f"pivs[{idx}]: {exc}") from exc

    trials = _expect_int(doc, "trials", DEFAULT_TRIALS)
    if trials < 1:
        raise ScenarioError("trials must be >= 1")
    try:
        scenario = Scenario(
            n=n,
            secrets=tuple(secrets),
            d=_expect_int(doc, "d", None),
            eve=_parse_eve(doc.get("eve")),
            noise_p=_expect_float(doc, "noise_p", 0.0),
            threshold_fraction=_expect_float(doc, "threshold_fraction", 0.125),
            seed=_expect_int(doc, "seed", 0),
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    return scenario, trials


def _scenario_doc(scenario: Scenario) -> dict:
    eve: dict = {"strategy": scenario.eve.tag}
    if scenario.eve.active:
        eve["k"] = scenario.eve.k
        eve["targets"] = list(scenario.eve.resolved_targets(scenario.n))
        if scenario.eve.basis_policy is not None:
            eve["basis_policy"] = scenario.eve.basis_policy
    return {
        "n": scenario.n,
        "pivs": [str(s) for s in scenario.secrets],
        "d": scenario.resolved_d,
        "eve": eve,
        "noise_p": scenario.noise_p,
        "threshold_fraction": scenario.threshold_fraction,
        "seed": scenario.seed,
    }


def emit_report(doc: dict) -> None:
    sys.stdout.write(yaml.safe_dump(doc, sort_keys=False, default_flow_style=False))


def cmd_run(args: argparse.Namespace) -> int:
    scenario, _ = load_scenario_file(resolve_scenario_path(args.scenario))
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    transcript = run_protocol(scenario)

    doc = {
        "scenario": _scenario_doc(scenario),
        "layout": {
            "segment_lengths": list(transcript.layout.lengths),
            "payload_length": transcript.layout.total,
        },
        "stream": {
            "length": transcript.stream_length,
            "decoy_positions": list(transcript.decoy_positions),
        },
        "stages": list(transcript.stages),
        "message_counts": dict(Counter(r.stage for r in transcript.messages.routes)),
        "validation": {
            "decoy_checks": transcript.validation.decoy_checks,
            "errors": transcript.validation.errors,
            "threshold": transcript.validation.threshold,
            "verdict": transcript.validation.verdict,
        },
    }

    if transcript.aborted:
        doc["status"] = "aborted"
        emit_report(doc)
        return EXIT_ABORT

    registers = transcript.registers
    doc["registers"] = {
        "broker": str(registers.broker),
        **{f"agent_{i}": str(r) for i, r in enumerate(registers.agents)},
    }
    matches = [
        recovered == expected
        for recovered, expected in zip(transcript.recovered, scenario.secrets)
    ]
    doc["recovery"] = {
        f"agent_{i}": {
            "recovered": str(transcript.recovered[i]),
            "expected": str(scenario.secrets[i]),
            "match": bool(matches[i]),
        }
        for i in range(scenario.n - 1)
    }
    doc["status"] = "ok" if all(matches) else "recovery_mismatch"
    emit_report(doc)
    return EXIT_OK if all(matches) else EXIT_MISMATCH


def cmd_experiment(args: argparse.Namespace) -> int:
    scenario, trials = load_scenario_file(resolve_scenario_path(args.scenario))
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    if args.trials is not None:
        trials = args.trials
    with _open_output(args.output) as out:
        stats = detection_experiment(scenario, trials, collect_rows=out is not None)
        if out is not None:
            _write_trials_csv(out, stats.rows)

    doc = {
        "scenario": _scenario_doc(scenario),
        "trials": stats.trials,
        "abort": {
            "count": stats.aborts,
            "rate": stats.abort_rate,
            "wilson_radius": stats.abort_radius,
        },
        "decoy_checks": {
            "total": stats.all_checks,
            "errors": stats.all_errors,
            "error_rate": stats.check_error_rate,
        },
        "attacked_decoy_qubits": {
            "total": stats.attacked_checks,
            "errors": stats.attacked_errors,
            "error_rate": stats.attacked_error_rate,
            "wilson_radius": stats.attacked_error_radius,
        },
        "attacked_decoy_tuples": {
            "total": stats.attacked_tuples,
            "with_error": stats.tuples_with_error,
            "error_rate": stats.tuple_error_rate,
            "wilson_radius": stats.tuple_error_radius,
        },
        "eve_guessing": {
            "bits": stats.eve_bits,
            "correct": stats.eve_correct,
            "accuracy": stats.eve_accuracy,
            "wilson_radius": stats.eve_accuracy_radius,
        },
        "secrecy_violations": stats.secrecy_violations,
    }
    if args.output is not None:
        doc["csv"] = args.output
    emit_report(doc)
    return EXIT_OK


@contextmanager
def _open_output(path: str | None):
    """The --output file, opened before any simulation so that a path that
    cannot be written fails at once; a failed write or close fails the same
    way."""
    if path is None:
        yield None
        return
    try:
        with open(path, "w", newline="") as out:
            yield out
    except OSError as exc:
        raise ScenarioError(f"cannot write {path}: {exc.strerror}") from exc


def _write_trials_csv(fh, rows) -> None:
    writer = csv.writer(fh)
    writer.writerow(["trial", "errors", "decoy_checks", "verdict", "eve_bit_accuracy"])
    for row in rows:
        writer.writerow(
            [row.trial, row.errors, row.decoy_checks, row.verdict, repr(row.eve_bit_accuracy)]
        )


def cmd_distribution(args: argparse.Namespace) -> int:
    scenario, _ = load_scenario_file(resolve_scenario_path(args.scenario))
    payload, _layout = concat_secrets(scenario.secrets)
    n, m = scenario.n, payload.length
    source = "joint" if n * m <= JOINT_ORACLE_QUBIT_CAP else "factorized"
    if source == "factorized":
        # refused before --output is opened, so a refusal leaves no file behind
        try:
            _check_factorized_size(n, m)
        except ValueError as exc:
            raise ScenarioError(
                f"{exc}; n={n}, m={m} exceeds the joint cap n*m <= {JOINT_ORACLE_QUBIT_CAP}"
                f" and the factorized caps (n-1)*m <= {FACTORIZED_FREE_BIT_CAP},"
                f" n <= {FACTORIZED_PARTY_CAP}"
            ) from exc

    with _open_output(args.output) as out:
        dist = joint_oracle(payload, n) if source == "joint" else factorized_oracle(payload, n)
        order = np.argsort(dist.keys, kind="stable")
        keys = dist.keys[order]
        # distinct probabilities as Python floats: YAML tags numpy ones, repr wraps them
        values, which = np.unique(dist.probs[order], return_inverse=True)
        values = values.tolist()
        doc = {
            "scenario": _scenario_doc(scenario),
            "oracle": source,
            "payload": str(payload),
            "outcomes": keys.size,
            "probability": {"min": values[0], "max": values[-1]},
            "first_rows": [
                {"outcome": text, "probability": values[i]}
                for text, i in zip(dist.render_keys(keys[:5]), which)
            ],
        }
        if args.output is not None:
            texts = list(map(repr, values))
            rows = (f"{key},{texts[i]}" for key, i in zip(dist.render_keys(keys), which.tolist()))
            # csv's \r\n line ends; bits, spaces and float reprs need no quoting
            out.write("\r\n".join(["outcome,probability", *rows, ""]))
            doc["csv"] = args.output
    emit_report(doc)
    return EXIT_OK


ORACLE_CHECK_CONFIGS = (
    (2, 1, 1),
    (2, 4, 9),
    (3, 2, 5),
    (3, 6, 42),
    (4, 3, 7),
    (5, 2, 11),
)
# samples are drawn as one (count, n - 1, m) uint64 array: 96 MB at n=3, m=6
ORACLE_CHECK_MAX_SAMPLES = 1_000_000


def cmd_oracle_check(args: argparse.Namespace) -> int:
    samples = args.trials if args.trials is not None else 100_000
    if samples > ORACLE_CHECK_MAX_SAMPLES:
        raise ScenarioError(f"--trials {samples} exceeds the cap of {ORACLE_CHECK_MAX_SAMPLES}")
    failures = 0
    lines = []
    for n, m, payload_seed in ORACLE_CHECK_CONFIGS:
        rng = np.random.default_rng(payload_seed)
        payload = BitVector(int(rng.integers(0, 1 << m)), m)
        joint = joint_oracle(payload, n)
        factorized = factorized_oracle(payload, n)
        keys = analytic_sample_keys(payload, n, np.random.default_rng(args.seed or 0), samples)

        same_support = joint.support() == factorized.support()
        max_diff = max(abs(p - factorized.probability(k)) for k, p in joint.entries.items())
        violations = support_violations(joint, keys)
        pvalue = sample_pvalue(joint, keys)
        ok = same_support and max_diff <= 1e-10 and violations == 0 and pvalue > 0.001
        failures += not ok
        lines.append(
            {
                "n": n,
                "m": m,
                "payload": str(payload),
                "support_match": bool(same_support),
                "max_probability_diff": float(max_diff),
                "sample_support_violations": violations,
                "chi_square_pvalue": float(pvalue),
                "status": "pass" if ok else "fail",
            }
        )
    emit_report({"samples_per_config": samples, "checks": lines, "failures": failures})
    return EXIT_OK if failures == 0 else 1


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _int_from(low: int):
    """argparse type: an integer of at least low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ghzcast",
        description="Simulate one-to-many secret broadcast over GHZ-entangled registers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[], help="run one protocol instance")
    p_run.add_argument("scenario", help="scenario file (YAML)")
    p_run.add_argument("--seed", type=_int_from(0), default=None, help="override the scenario seed")
    p_run.set_defaults(func=cmd_run)

    p_exp = sub.add_parser("experiment", help="repeat a scenario and aggregate statistics")
    p_exp.add_argument("scenario")
    p_exp.add_argument("--seed", type=_int_from(0), default=None)
    p_exp.add_argument("--trials", type=_int_from(1), default=None)
    p_exp.add_argument("--output", default=None, help="write per-trial rows to this CSV")
    p_exp.set_defaults(func=cmd_experiment)

    p_dist = sub.add_parser(
        "distribution", help="exact outcome distribution of the decryption stage"
    )
    p_dist.add_argument("scenario")
    p_dist.add_argument("--output", default=None, help="write per-outcome rows to this CSV")
    p_dist.set_defaults(func=cmd_distribution)

    p_oracle = sub.add_parser("oracle-check", help="cross-check the three oracle routes")
    p_oracle.add_argument("--seed", type=_int_from(0), default=None)
    p_oracle.add_argument(
        "--trials", type=_int_from(1), default=None, help="samples per configuration"
    )
    p_oracle.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ScenarioError as exc:
        sys.stderr.write(f"ghzcast: error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
