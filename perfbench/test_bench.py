"""Self-test of the benchmark at tiny trial counts.

Run from the repository root:

    python3 -m pytest -q perfbench/test_bench.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_ghzcast()

import tracer  # noqa: E402
import workloads  # noqa: E402
from ghzcast import protocol  # noqa: E402
from ghzcast.bitvec import BitVector  # noqa: E402

TINY = ["--seed", "7", "--seconds", "0"]


@pytest.fixture(autouse=True)
def tiny_ops(monkeypatch):
    """One trial per detection_experiment op, no set-up probe processes."""
    monkeypatch.setattr(workloads, "TRIALS_PER_OP", 1)
    monkeypatch.setattr(run, "SETUP_PROBES", 0)


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_declared_metric_is_printed_with_its_unit(workload, trace, capsys):
    code = run.main(["--workload", workload, "--trace", str(trace), *TINY])
    result = last_json(capsys)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_op_times_are_scaled_by_the_speed_around_them():
    probe = run.SpeedProbe()
    probe.samples = [2e-3] * 10 + [0.5e-3] * 10

    scaled = probe.at_reference([0.1] * 20)

    assert len(scaled) == 20
    # an op's window holds SPEED_WINDOW samples on each side of its own
    assert scaled[0] == pytest.approx(0.05) and scaled[19] == pytest.approx(0.2)
    assert all(0.05 <= t <= 0.2 for t in scaled)


@pytest.mark.parametrize("workload", ["honest_broadcast", "attack_detect", "oracle_triangle"])
def test_self_times_of_a_traced_op_sum_to_its_time(workload):
    wl = workloads.make(workload, seed=3)
    spans = tracer.Tracer()
    spans.install()
    try:
        elapsed = [wl.execute(inp, spans) for inp in wl.cycle()[:2]]
    finally:
        spans.uninstall()

    assert None not in elapsed and wl.failed_ops == 0
    own = spans.self_times()
    for op in range(spans.ops):
        members = [i for i, s in enumerate(spans.spans) if s[4] == op]
        (root,) = [i for i in members if spans.spans[i][0] == tracer.OP_SPAN]
        duration = spans.spans[root][2] - spans.spans[root][1]
        assert len(members) > 1
        assert sum(own[i] for i in members) == pytest.approx(duration, rel=1e-9)
        assert 0 <= own[root] < duration

    metrics = spans.layer_metrics()
    unattributed = sum(t for s, t in zip(spans.spans, own) if s[0] == tracer.OP_SPAN)
    assert metrics["bench.unattributed_ms_per_trial"] == pytest.approx(unattributed * 1e3 / spans.trials)
    layers = sum(t for s, t in zip(spans.spans, own) if s[0] != tracer.OP_SPAN)
    assert metrics["bench.traced_ms_per_trial"] == pytest.approx((layers + unattributed) * 1e3 / spans.trials)


def test_gate_fails_when_recovery_flips_one_bit(capsys, monkeypatch):
    honest = protocol.recover_secret

    def flipped(*args, **kwargs):
        secret = honest(*args, **kwargs)
        return BitVector(secret.value ^ 1, secret.length)

    monkeypatch.setattr(protocol, "recover_secret", flipped)
    code = run.main(["--workload", "honest_broadcast", "--trace", "0", *TINY])
    result = last_json(capsys)

    assert code == 1 and not result["correct"]
    assert result["failed"] == result["attempted"]
    report = json.loads((run.OUT / "honest_broadcast-seed7-trace0.json").read_text())["report"]
    assert report["failed_frac"] == 1.0
    assert "recovered a wrong secret" in report["failures"][0]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "honest_broadcast", *TINY, "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
