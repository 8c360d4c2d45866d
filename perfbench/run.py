#!/usr/bin/env python3
"""Benchmark of ghzcast: trial throughput on honest, attacked and oracle workloads.

Run from the repository root:

    python3 perfbench/run.py --workload honest_broadcast --seed 1 --seconds 20 --trace 0

Workloads are described in perfbench/README.md. With --trace 0 the workload
runs untraced for --seconds and the end-to-end metrics are printed. With
--trace 1 untraced cycles alternate with cycles in which every layer's
public functions are wrapped by tracer.Tracer; the per-layer metrics and the
tracing overhead are printed.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; metric names and units are those listed in
BENCHMARK.json. The line before it starts with REPORT and holds the run
environment, the tail percentile, failed_frac, any gate failures and the
simulated-statistics fingerprint; the same report is written to
perfbench/out/. Everything runs in one thread of one process, apart from the
short set-up probes, which run one after another.

Exit status: 0 when every op and every gate passed, 1 when an output check
failed, 2 when the ghzcast sources are not found under src/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("honest_broadcast", "attack_detect", "oracle_triangle")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# set-up runs in this many fresh processes besides the measuring one;
# setup_s is the median of all of them, in CPU time at reference speed
SETUP_PROBES = 4
# op_ms_tail is the mean of the TAIL_OPS slowest ops, the ones beyond the
# highest percentile with ten ops beyond it. A single order statistic there
# jumps between shapes on oracle_triangle, where the slowest ops are the
# n=10, m=2 config that each of a run's nine to eleven cycles holds once.
TAIL_OPS = 10
MIN_OPS = 3 * TAIL_OPS
# End-to-end op times are CPU time at reference speed. The program runs in
# this one thread and does no I/O inside an op, so an op's CPU time is its
# wall-clock time less the time the host ran something else, which gave the
# mean of the ten slowest ops' wall-clock times a quartile spread over seeds
# of 0.2 of its median, against 0.02 in CPU time.
# The CPU itself also runs up to 2x slower for tens of seconds at a time, so
# before every untraced op SpeedProbe times a fixed kernel of the benchmark's
# own; an op's time at reference speed is its CPU time scaled by
# REFERENCE_KERNEL_S over the median kernel CPU time of the ops within
# SPEED_WINDOW places of it.
REFERENCE_KERNEL_S = 1e-3
SPEED_WINDOW = 4
KERNEL_WARMUP = 20


class SourcesMissing(Exception):
    pass


class NoOpCompleted(Exception):
    pass


def check_sources() -> None:
    if not (SRC / "ghzcast" / "__init__.py").is_file():
        raise SourcesMissing(f"no ghzcast package under {SRC}")


def import_ghzcast():
    """Import ghzcast from this checkout's src/ and nowhere else."""
    check_sources()
    package = SRC / "ghzcast"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ghzcast

    if Path(ghzcast.__file__).resolve().parent != package:
        raise SourcesMissing(f"ghzcast was imported from {ghzcast.__file__}, not {package}")
    return ghzcast


def setup(name: str, seed: int):
    """Import ghzcast, generate the workload and run its warm-up op, which
    fills the program's caches. Returns the workload and the seconds taken,
    in CPU time at reference speed (ref_s) and in wall-clock time (wall_s)."""
    start_cpu, start = time.process_time(), time.perf_counter()
    import_ghzcast()
    import workloads

    workload = workloads.make(name, seed)
    workload.execute(workload.warmup_input())
    cpu, wall = time.process_time() - start_cpu, time.perf_counter() - start
    # timed after set-up, whose import of ghzcast imports numpy
    probe = SpeedProbe()
    for _ in range(2 * SPEED_WINDOW + 1):
        probe.sample()
    ref = cpu * REFERENCE_KERNEL_S / statistics.median(probe.samples)
    return workload, {"ref_s": ref, "wall_s": wall}


def probe_setup(args) -> list[dict]:
    """Set-up times of SETUP_PROBES fresh processes, run one after another."""
    command = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0", "--trace", "0"]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup"])
    return samples


class SpeedProbe:
    """Times the machine's current speed with a fixed kernel that mixes
    interpreter work with numpy calls on small (256) and large (65536)
    complex arrays, as the program does; none of it is ghzcast code."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.small = rng.standard_normal(1 << 8) + 0j
        self.large = rng.standard_normal(1 << 16) + 0j
        self.samples: list[float] = []
        for _ in range(KERNEL_WARMUP):
            self.sample()
        self.samples.clear()

    def sample(self) -> None:
        start = time.process_time()
        acc, table = 0, {}
        for i in range(2000):
            table[i & 63] = acc
            acc = (acc * 31 + i) & 0xFFFF
        for _ in range(60):
            (abs(self.small) ** 2).sum()
        for _ in range(2):
            (abs(self.large) ** 2).sum()
        self.samples.append(time.process_time() - start)

    def at_reference(self, times: list[float]) -> list[float]:
        """Op times (one per sample, in order) scaled to reference speed."""
        scaled = []
        for i, elapsed in enumerate(times):
            near = self.samples[max(0, i - SPEED_WINDOW):i + SPEED_WINDOW + 1]
            scaled.append(elapsed * REFERENCE_KERNEL_S / statistics.median(near))
        return scaled


def _run_cycle(workload, times: list, tracer=None, probe=None) -> int:
    """Run one cycle, appending the OpTime of every op that completed (and,
    with a probe, one kernel time taken just before it); returns the number
    of ops run."""
    inputs = workload.cycle()
    for inp in inputs:
        if probe is not None:
            probe.sample()
        elapsed = workload.execute(inp, tracer)
        if elapsed is not None:
            times.append(elapsed)
        elif probe is not None:
            probe.samples.pop()
    return len(inputs)


def timed_loop(workload, seconds: float, tracer=None, probe=None) -> tuple[list, list]:
    """Run whole cycles until both seconds and MIN_OPS untraced ops are
    reached. With a tracer, every untraced cycle is followed by a traced one,
    so both kinds see the same machine; returns (untraced, traced) op times."""
    untraced: list[float] = []
    traced: list[float] = []
    ran = 0
    start = time.perf_counter()
    while ran < MIN_OPS or time.perf_counter() - start < seconds:
        ran += _run_cycle(workload, untraced, probe=probe)
        if tracer is not None:
            tracer.install()
            try:
                _run_cycle(workload, traced, tracer)
            finally:
                tracer.uninstall()
    return untraced, traced


def ops_per_s(times: list[float]) -> float:
    if not times:
        raise NoOpCompleted("every op of the timed loop raised")
    return len(times) / sum(times)


def op_times(times: list[float]) -> tuple[dict, dict]:
    """ops_per_s, op_ms_p50 and op_ms_tail of a list of op times, and where
    the tail was taken."""
    rate = ops_per_s(times)
    ordered = sorted(times)
    rank = len(ordered) - min(TAIL_OPS, len(ordered))
    metrics = {
        "ops_per_s": rate,
        "op_ms_p50": statistics.median(times) * 1e3,
        "op_ms_tail": statistics.fmean(ordered[rank:]) * 1e3,
    }
    tail = {"percentile": 100.0 * rank / len(ordered), "ops": len(ordered),
            "ops_beyond": len(ordered) - rank}
    return metrics, tail


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric names and units the benchmark declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(args) -> tuple[dict, dict]:
    """Set up, run and check one workload; returns (result, report)."""
    setup_samples = [] if args.trace else probe_setup(args)
    workload, setup_times = setup(args.workload, args.seed)
    setup_samples.append(setup_times)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "trials_per_op": workload.trials}
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        untraced, traced = timed_loop(workload, args.seconds, tracer)
        metrics = tracer.layer_metrics()
        # wall-clock, as the spans are
        report["untraced_ops_per_s"] = ops_per_s([t.wall for t in untraced])
        report["traced_ops_per_s"] = ops_per_s([t.wall for t in traced])
        metrics["bench.trace_overhead"] = report["untraced_ops_per_s"] / report["traced_ops_per_s"]
        report["traced_ops"] = tracer.ops
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    else:
        probe = SpeedProbe()
        times, _ = timed_loop(workload, args.seconds, probe=probe)
        cpu = [t.cpu for t in times]
        reference, report["tail"] = op_times(probe.at_reference(cpu))
        metrics = {f"ref_{name}": value for name, value in reference.items()}
        metrics["setup_s"] = statistics.median(t["ref_s"] for t in setup_samples)
        metrics["peak_rss_mb"] = peak_rss_mb()
        report["setup_samples"] = setup_samples
        report["ref_trials_per_s"] = metrics["ref_ops_per_s"] * workload.trials
        report["cpu"], _ = op_times(cpu)
        report["cpu"]["kernel_ms_p50"] = statistics.median(probe.samples) * 1e3
        report["wall"], _ = op_times([t.wall for t in times])
    gate_failures = workload.gate()

    failed = workload.failed_ops + len(gate_failures)
    report.update(
        failed_frac=failed / workload.attempted,
        failures=workload.failures + gate_failures,
        fingerprint=workload.fingerprint,
        environment=environment(),
    )
    units = declared_metrics(bool(args.trace))
    result = {
        "correct": failed == 0,
        "attempted": workload.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, report


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time set-up and print it (used internally)")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        check_sources()
        if args.setup_probe:
            _workload, setup_times = setup(args.workload, args.seed)
            print(json.dumps({"setup": setup_times}))
            return 0
        result, report = measure(args)
    except SourcesMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except NoOpCompleted as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"result": result, "report": report}, indent=1) + "\n")
    print("REPORT " + json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
