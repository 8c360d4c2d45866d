import csv
import hashlib
import tracemalloc
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzcast import cli
from ghzcast.analysis import JOINT_ORACLE_QUBIT_CAP
from ghzcast.bitvec import BitVector
from ghzcast.cli import (
    EXIT_ABORT,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    ScenarioError,
    load_scenario_file,
    main,
    resolve_scenario_path,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def write_scenario(tmp_path: Path, text: str, name: str = "case.yaml") -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadScenario:
    def test_full_document(self, tmp_path):
        path = write_scenario(
            tmp_path,
            """
            n: 3
            pivs: ["010", "101"]
            d: 9
            noise_p: 0.05
            threshold_fraction: 0.25
            seed: 13
            trials: 250
            eve:
              strategy: measure_resend
              basis_policy: random_basis
              k: 2
              targets: [0, 1]
            """,
        )
        scenario, trials = load_scenario_file(path)
        assert scenario.n == 3
        assert scenario.secrets == (
            BitVector.from_text("010"),
            BitVector.from_text("101"),
        )
        assert scenario.resolved_d == 9
        assert scenario.noise_p == 0.05
        assert scenario.threshold_fraction == 0.25
        assert scenario.seed == 13
        assert trials == 250
        assert scenario.eve.tag == "measure_resend"
        assert scenario.eve.k == 2
        assert scenario.eve.targets == (0, 1)

    def test_minimal_document_defaults(self, tmp_path):
        path = write_scenario(tmp_path, 'n: 2\npivs: ["11"]\n')
        scenario, trials = load_scenario_file(path)
        assert scenario.resolved_d == 2
        assert scenario.noise_p == 0.0
        assert scenario.threshold_fraction == 0.125
        assert trials == 1000
        assert not scenario.eve.active

    def test_unknown_key(self, tmp_path):
        path = write_scenario(tmp_path, 'n: 2\npivs: ["11"]\nshots: 5\n')
        with pytest.raises(ScenarioError, match="shots"):
            load_scenario_file(path)

    def test_unquoted_bit_string_is_rejected(self, tmp_path):
        # YAML reads a bare 010 as the octal integer 8
        path = write_scenario(tmp_path, "n: 2\npivs: [010]\n")
        with pytest.raises(ScenarioError, match="quoted bit string"):
            load_scenario_file(path)

    def test_non_binary_text(self, tmp_path):
        path = write_scenario(tmp_path, 'n: 2\npivs: ["10a"]\n')
        with pytest.raises(ScenarioError, match="pivs\\[0\\]"):
            load_scenario_file(path)

    def test_missing_required_keys(self, tmp_path):
        with pytest.raises(ScenarioError, match="required"):
            load_scenario_file(write_scenario(tmp_path, "n: 2\n"))
        with pytest.raises(ScenarioError, match="required"):
            load_scenario_file(write_scenario(tmp_path, 'pivs: ["1"]\n'))

    def test_wrong_secret_count(self, tmp_path):
        path = write_scenario(tmp_path, 'n: 4\npivs: ["1", "0"]\n')
        with pytest.raises(ScenarioError, match="secret"):
            load_scenario_file(path)

    def test_non_mapping_document(self, tmp_path):
        path = write_scenario(tmp_path, "- 1\n- 2\n")
        with pytest.raises(ScenarioError, match="mapping"):
            load_scenario_file(path)

    def test_yaml_syntax_error_reports_line(self, tmp_path):
        path = write_scenario(tmp_path, 'n: 2\npivs: ["11"\n')
        with pytest.raises(ScenarioError, match="line"):
            load_scenario_file(path)

    def test_bad_trials(self, tmp_path):
        path = write_scenario(tmp_path, 'n: 2\npivs: ["11"]\ntrials: 0\n')
        with pytest.raises(ScenarioError, match="trials"):
            load_scenario_file(path)

    def test_bad_eve_key(self, tmp_path):
        path = write_scenario(
            tmp_path, 'n: 2\npivs: ["11"]\neve: {strategy: measure_resend, kk: 2}\n'
        )
        with pytest.raises(ScenarioError, match="kk"):
            load_scenario_file(path)

    def test_unknown_strategy(self, tmp_path):
        path = write_scenario(tmp_path, 'n: 2\npivs: ["11"]\neve: {strategy: sneaky}\n')
        with pytest.raises(ScenarioError, match="sneaky"):
            load_scenario_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario_file(tmp_path / "nope.yaml")

    @pytest.mark.parametrize("command", ["run", "experiment", "distribution"])
    def test_non_utf8_file_is_a_usage_error(self, tmp_path, capsys, command):
        path = tmp_path / "case.yaml"
        path.write_bytes(b'n: 3\npivs: ["\xff"]\n')
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario_file(path)
        assert main([command, str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("ghzcast: error:")


class TestPathResolution:
    def test_absolute_path_passes_through(self, tmp_path):
        path = write_scenario(tmp_path, 'n: 2\npivs: ["11"]\n')
        assert resolve_scenario_path(str(path)) == path

    def test_env_dir_fallback(self, tmp_path, monkeypatch):
        write_scenario(tmp_path, 'n: 2\npivs: ["11"]\n', name="host.yaml")
        monkeypatch.setenv("GHZCAST_SCENARIO_DIR", str(tmp_path))
        assert resolve_scenario_path("host.yaml") == tmp_path / "host.yaml"

    def test_existing_relative_path_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GHZCAST_SCENARIO_DIR", str(tmp_path))
        local = SCENARIO_DIR / "three_party.yaml"
        assert resolve_scenario_path(str(local)) == local


class TestRunCommand:
    def test_honest_run_report(self, capsys):
        code = main(["run", str(SCENARIO_DIR / "three_party.yaml")])
        assert code == EXIT_OK
        report = yaml.safe_load(capsys.readouterr().out)
        assert report["scenario"]["n"] == 3
        assert report["scenario"]["pivs"] == ["010", "101"]
        assert report["stages"][-1] == "recovery"
        assert report["validation"]["verdict"] == "pass"
        assert report["status"] == "ok"
        assert report["recovery"]["agent_0"]["recovered"] == "010"
        assert report["recovery"]["agent_1"]["recovered"] == "101"
        assert len(report["stream"]["decoy_positions"]) == 6
        assert report["message_counts"]["exchange"] == 4

    def test_report_is_deterministic(self, capsys):
        main(["run", str(SCENARIO_DIR / "three_party.yaml")])
        first = capsys.readouterr().out
        main(["run", str(SCENARIO_DIR / "three_party.yaml")])
        assert capsys.readouterr().out == first

    def test_seed_override_changes_report(self, capsys):
        main(["run", str(SCENARIO_DIR / "three_party.yaml")])
        base = yaml.safe_load(capsys.readouterr().out)
        main(["run", str(SCENARIO_DIR / "three_party.yaml"), "--seed", "99"])
        overridden = yaml.safe_load(capsys.readouterr().out)
        assert base["scenario"]["seed"] == 7
        assert overridden["scenario"]["seed"] == 99
        assert overridden["status"] == "ok"

    def test_interception_aborts(self, capsys):
        code = main(["run", str(SCENARIO_DIR / "measure_resend.yaml")])
        assert code == EXIT_ABORT
        report = yaml.safe_load(capsys.readouterr().out)
        assert report["validation"]["verdict"] == "fail"
        assert report["status"] == "aborted"
        assert report["stages"][-1] == "validation"
        assert "recovery" not in report

    def test_unchecked_replacement_corrupts_recovery(self, tmp_path, capsys):
        # without decoys the replacement attack goes unnoticed but the
        # delivered registers no longer fold onto the payload
        path = write_scenario(
            tmp_path,
            """
            n: 3
            pivs: ["010", "101"]
            d: 0
            seed: 5
            eve:
              strategy: intercept_replace
              k: 2
              targets: [0, 1]
            """,
        )
        code = main(["run", str(path)])
        assert code == EXIT_MISMATCH
        report = yaml.safe_load(capsys.readouterr().out)
        assert report["status"] == "recovery_mismatch"
        matches = [entry["match"] for entry in report["recovery"].values()]
        assert not all(matches)

    @pytest.mark.parametrize(
        "text",
        [
            # 13 protocol qubits plus Eve's 13-qubit replacement tuple
            'n: 13\npivs: ["1","0","1","1","0","0","1","0","1","1","0","1"]\n'
            "eve: {strategy: intercept_replace, k: 2}\n",
            "n: 25\npivs: [" + ", ".join(['"1"'] * 24) + "]\n",
        ],
        ids=["intercept_replace_n13", "honest_n25"],
    )
    def test_tuples_over_the_qubit_cap_are_usage_errors(self, tmp_path, capsys, text):
        code = main(["run", str(write_scenario(tmp_path, text))])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("ghzcast: error:") and "cap" in err
        assert "\n" not in err

    def test_streams_over_the_amplitude_cap_are_refused_before_allocating(self, tmp_path, capsys):
        # 42 tuples of 22 qubits fit the qubit cap, but the stream would need
        # 42 * 2**22 amplitudes (2.6 GiB)
        path = write_scenario(tmp_path, "n: 22\npivs: [" + ", ".join(['"1"'] * 21) + "]\n")
        tracemalloc.start()
        try:
            code = main(["run", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_USAGE
        assert peak < 1 << 20
        err = capsys.readouterr().err.strip()
        assert err.startswith("ghzcast: error:") and "amplitudes" in err and "cap" in err
        assert "\n" not in err

    def test_missing_scenario_is_usage_error(self, capsys):
        code = main(["run", "/does/not/exist.yaml"])
        assert code == EXIT_USAGE
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "{case}"],
            ["run", str(SCENARIO_DIR / "three_party.yaml"), "--seed", "-3"],
            ["experiment", str(SCENARIO_DIR / "three_party.yaml"), "--seed", "-2"],
            ["experiment", str(SCENARIO_DIR / "three_party.yaml"), "--trials", "0"],
            ["oracle-check", "--seed", "-1"],
            ["oracle-check", "--trials", "0"],
            ["experiment", str(SCENARIO_DIR / "three_party.yaml"), "--trials", "two"],
        ],
        ids=[
            "file_seed_-1",
            "run_seed_-3",
            "experiment_seed_-2",
            "experiment_trials_0",
            "oracle_check_seed_-1",
            "oracle_check_trials_0",
            "experiment_trials_text",
        ],
    )
    def test_negative_seeds_and_zero_trials_are_usage_errors(self, tmp_path, capsys, argv):
        case = write_scenario(tmp_path, 'n: 3\npivs: ["010", "101"]\nseed: -1\n')
        code = main([arg.format(case=case) for arg in argv])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        err = captured.err.strip()
        assert "error:" in err and "\n" not in err

    @pytest.mark.parametrize("command", ["experiment", "distribution"])
    def test_unwritable_output_is_refused_before_simulating(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("simulated before opening --output")

        monkeypatch.setattr(cli, "detection_experiment", unreachable)
        monkeypatch.setattr(cli, "joint_oracle", unreachable)
        out = tmp_path / "missing" / "rows.csv"
        code = main([command, str(SCENARIO_DIR / "three_party.yaml"), "--output", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("ghzcast: error: cannot write") and str(out) in err
        assert "\n" not in err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_no_arguments(self, capsys):
        assert main([]) == EXIT_USAGE


class TestExperimentCommand:
    def test_stats_document(self, capsys):
        code = main(
            [
                "experiment",
                str(SCENARIO_DIR / "three_party.yaml"),
                "--trials",
                "40",
            ]
        )
        assert code == EXIT_OK
        doc = yaml.safe_load(capsys.readouterr().out)
        assert doc["trials"] == 40
        assert doc["abort"]["count"] == 0
        assert doc["decoy_checks"]["errors"] == 0
        assert doc["eve_guessing"]["bits"] == 240
        assert doc["secrecy_violations"] == 0

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(
            [
                "experiment",
                str(SCENARIO_DIR / "three_party.yaml"),
                "--trials",
                "25",
                "--output",
                str(out),
            ]
        )
        assert code == EXIT_OK
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 25
        assert set(rows[0]) == {
            "trial",
            "errors",
            "decoy_checks",
            "verdict",
            "eve_bit_accuracy",
        }
        assert all(r["verdict"] == "pass" for r in rows)


class TestDistributionCommand:
    def test_small_joint_distribution(self, tmp_path, capsys):
        path = write_scenario(tmp_path, 'n: 3\npivs: ["0", "1"]\nseed: 2\n')
        out = tmp_path / "dist.csv"
        code = main(["distribution", str(path), "--output", str(out)])
        assert code == EXIT_OK
        doc = yaml.safe_load(capsys.readouterr().out)
        assert doc["oracle"] == "joint"
        assert doc["outcomes"] == 16
        assert doc["probability"]["min"] == pytest.approx(1 / 16)
        assert doc["probability"]["max"] == pytest.approx(1 / 16)
        assert len(doc["first_rows"]) == 5
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 16
        assert set(rows[0]) == {"outcome", "probability"}
        assert sum(float(r["probability"]) for r in rows) == pytest.approx(1.0)

    def test_medium_config_uses_factorized_oracle(self, tmp_path, capsys):
        # 24 qubits is past the joint cap, tuple-wise assembly still fits
        path = write_scenario(tmp_path, 'n: 4\npivs: ["10", "01", "11"]\n')
        code = main(["distribution", str(path)])
        assert code == EXIT_OK
        doc = yaml.safe_load(capsys.readouterr().out)
        assert doc["oracle"] == "factorized"
        assert doc["outcomes"] == 1 << 18
        assert doc["probability"]["max"] == pytest.approx(2**-18)

    @pytest.mark.parametrize(
        "text, stdout_sha256, csv_sha256",
        [
            (
                'n: 3\npivs: ["101", "011"]\nseed: 5\n',
                "36bc6178f655c9f4be78dcba832a1f96bb016e31c9761818cd61917a7b8ac6e8",
                "b0589c80b88b6b79f1bef1ad46a900441958b0487fcc1404eefd9ac8e753e2ee",
            ),
            (
                'n: 4\npivs: ["10", "01", "11"]\n',
                "73195955d375be5236c2e6d0b3036f8e55cad616954a4025861770ee35b3722e",
                "c8ee98d9493ce8e042012ff2c7f221e7056a636bd66cf64f42adea4cd5433a7e",
            ),
        ],
        ids=["joint", "factorized"],
    )
    def test_report_and_csv_bytes_are_pinned(
        self, tmp_path, monkeypatch, capsys, text, stdout_sha256, csv_sha256
    ):
        # numpy scalars would show up here as np.float64(...) in the CSV or
        # as YAML tags in probability.min/max
        monkeypatch.chdir(tmp_path)
        write_scenario(tmp_path, text)
        assert main(["distribution", "case.yaml", "--output", "dist.csv"]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha256
        assert hashlib.sha256((tmp_path / "dist.csv").read_bytes()).hexdigest() == csv_sha256

    def test_oversize_config_names_the_caps(self, capsys):
        code = main(["distribution", str(SCENARIO_DIR / "noisy_channel.yaml")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "n*m <= 20" in err and "(n-1)*m <= 20" in err
        assert "sampling" not in err

    @pytest.mark.parametrize("existing", [None, "outcome,probability\n"])
    def test_oversize_config_leaves_output_untouched(self, tmp_path, capsys, existing):
        out = tmp_path / "dist.csv"
        if existing is not None:
            out.write_text(existing)
        code = main(
            ["distribution", str(SCENARIO_DIR / "noisy_channel.yaml"), "--output", str(out)]
        )
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("ghzcast: error:")
        if existing is None:
            assert not out.exists()
        else:
            assert out.read_text() == existing


# exit code of `run` on each bundled scenario: the three attack files abort
BUNDLED_RUN_CODES = {
    "three_party": EXIT_OK,
    "noisy_channel": EXIT_OK,
    "measure_resend": EXIT_ABORT,
    "intercept_replace": EXIT_ABORT,
    "entangle_ancilla": EXIT_ABORT,
}


# sha256 of the stdout of `run` and of `experiment --trials 200` on each
# bundled scenario: registers, decoy positions, message counts and every
# statistic, byte for byte
BUNDLED_STDOUT_SHA256 = {
    "three_party": (
        "da79c6d01a3eb206273da121968fd70ba375b0396b0ac4977685cf37a813726f",
        "29d971bbeb8b7ab70151ba819cf31dfd5356844e2515d6434d673660787e11b0",
    ),
    "noisy_channel": (
        "6eacdedb2724ed1a1e49e4e87c10f98642ff4c2b9dcc43d9bcbf500d08cae115",
        "b7d9b1b324295515c68b95e6642f5c852d4a829ba7bb1e16094355be1caf4619",
    ),
    "measure_resend": (
        "e10049f48f8ca344df1f440c8c77e886f2f231ce7ced471cdc9eaed9a4a81608",
        "881c28de36e32af62c924551890cd89e958cff52936354d3837be0552391cd7c",
    ),
    "intercept_replace": (
        "dec9d36a680cec6e63226171361f899098fcc94758675450a1bbfa22c5b4a856",
        "4688c9d171145b2da951f563cd6a7cbb250e7a2d49afd90260214316bbf7a50b",
    ),
    "entangle_ancilla": (
        "77b2e26ad87bf8774da7c781ef9ffb54e06a236ffaf707415e46a9977a7d1f83",
        "5a7dacd0141f5a969ecfb0b556f5f175b0d5288df9919720d3c5c0a8dc808f69",
    ),
}


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.yaml")), ids=lambda p: p.stem)
def test_bundled_scenarios_run(path, capsys):
    run_sha256, experiment_sha256 = BUNDLED_STDOUT_SHA256[path.stem]
    assert main(["run", str(path)]) == BUNDLED_RUN_CODES[path.stem]
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == run_sha256
    assert main(["experiment", str(path), "--trials", "200"]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == experiment_sha256
    doc = yaml.safe_load(out)
    assert doc["trials"] == 200
    assert doc["secrecy_violations"] == 0


def test_oracle_check_passes(capsys):
    assert main(["oracle-check"]) == EXIT_OK
    # safe_load refuses YAML tags, so a numpy scalar in the report fails here
    doc = yaml.safe_load(capsys.readouterr().out)
    assert doc["failures"] == 0
    for check in doc["checks"]:
        assert all(type(v) in (int, float, bool, str) for v in check.values())
        assert check["support_match"] is True
        assert check["sample_support_violations"] == 0
        assert check["max_probability_diff"] <= 1e-10
        assert check["status"] == "pass"


def test_oracle_check_over_the_sample_cap_is_refused_before_allocating(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("sampled past the cap")

    monkeypatch.setattr(cli, "analytic_sample_keys", unreachable)
    monkeypatch.setattr(cli, "joint_oracle", unreachable)
    tracemalloc.start()
    try:
        code = main(["oracle-check", "--trials", str(cli.ORACLE_CHECK_MAX_SAMPLES + 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_USAGE
    assert peak < 1 << 20
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("ghzcast: error:") and "cap" in err and "\n" not in err


EVE_DOCS = st.fixed_dictionaries(
    {},
    optional={
        "strategy": st.sampled_from(
            ["none", "measure_resend", "intercept_replace", "entangle_ancilla", "tap"]
        ),
        "basis_policy": st.sampled_from(["always_computational", "random_basis", "diagonal"]),
        "k": st.integers(0, 3),
        "targets": st.lists(st.integers(-1, 4), max_size=2),
    },
)
# keys besides n and pivs, each absent or drawn from mostly valid values
OPTIONAL_KEYS = {
    "d": st.sampled_from([0, 1, 3, 8, -1]),
    "eve": EVE_DOCS,
    "noise_p": st.sampled_from([0.0, 0.05, 0.5, 1.0, 1.5, float("nan"), 10**400]),
    "threshold_fraction": st.sampled_from([0.125, 0.5, 0.9, 0.0, 1.0, 10**400]),
    "seed": st.integers(-3, 10**6) | st.just(2**70),
    "trials": st.sampled_from([1, 2, 3, 0, -1]),
}


@st.composite
def scenario_docs(draw) -> dict:
    """Scenario documents with at most 6 payload bits: mostly a matching n
    and pivs, one time in ten a bad value under some key."""
    n = draw(st.integers(2, 5))
    pivs = draw(
        st.lists(st.text("01", min_size=1, max_size=2), min_size=n - 1, max_size=n - 1).filter(
            lambda pivs: sum(map(len, pivs)) <= 6
        )
    )
    doc = {"n": n, "pivs": pivs}
    if draw(st.sampled_from([False] * 9 + [True])):
        doc[draw(st.sampled_from(["n", "pivs", "eve", "color"]))] = draw(
            st.sampled_from([-1, True, 2.5, "3", ["", "012", 3], "replace"])
        )
    doc.update(draw(st.fixed_dictionaries({}, optional=OPTIONAL_KEYS)))
    return doc


def _oracle_qubits(doc: dict) -> int:
    """Qubits of the joint state the distribution command would build."""
    n, pivs = doc.get("n"), doc.get("pivs")
    if isinstance(n, bool) or not isinstance(n, int) or not isinstance(pivs, list):
        return 0
    return n * sum(len(p) for p in pivs if isinstance(p, str))


@settings(max_examples=200, deadline=None)
@given(
    doc=scenario_docs(),
    command=st.sampled_from(["run", "experiment", "distribution"]),
    seed=st.none() | st.integers(-3, 2**64),
    trials=st.none() | st.integers(-1, 3),
)
def test_fuzzed_scenarios_exit_with_a_contract_code(tmp_path_factory, doc, command, seed, trials):
    """Every scenario document either runs or is refused with a usage
    error; none ends in a traceback."""
    if command == "distribution" and _oracle_qubits(doc) > JOINT_ORACLE_QUBIT_CAP:
        command = "run"  # keeps to the joint oracle
    if command == "experiment" and trials is None:
        doc.setdefault("trials", 2)  # not the default thousand
    path = tmp_path_factory.getbasetemp() / "fuzz.yaml"
    path.write_text(yaml.safe_dump(doc))
    argv = [command, str(path)]
    if seed is not None and command != "distribution":
        argv += ["--seed", str(seed)]
    if trials is not None and command == "experiment":
        argv += ["--trials", str(trials)]
    assert main(argv) in (EXIT_OK, EXIT_ABORT, EXIT_MISMATCH, EXIT_USAGE)
