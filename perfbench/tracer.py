"""Span recorder for the traced benchmark run.

The tracer wraps public functions of each ghzcast layer at the point where
the calling module imported them (for example ``ghzcast.protocol.measure_qubits``
or ``ghzcast.adversary.tensor``), so ``src/`` stays untouched. Every call
inside an op records one span: name, start, end, parent span and op id.
Spans stay in memory until the run ends. A span's self time is its duration minus the
durations of its direct children; the self times of all spans of one op
therefore sum to that op's root span.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager

from ghzcast import adversary, analysis, distribution, protocol

OP_SPAN = "bench.op"


def _measure_bytes(args, result):
    # one pass over the amplitudes to measure, plus two (in and out of the
    # frame) for every qubit measured in the Hadamard basis
    state, _qubits, bases = args[:3]
    passes = 1 + 2 * sum(b == "hadamard" for b in bases)
    return {"computed_bytes": (1 << state.num_qubits) * 16 * passes}


def _plan_tuples(args, result):
    m, d = args[:2]
    return {"tuples": m + d}


def _validation_counts(args, result):
    report = result[0]
    return {"checks": report.decoy_checks, "errors": report.errors}


def _exchange_counts(args, result):
    return {"messages": len(result[0])}


def _run_counts(args, result):
    return {"passes": int(not result.transcript.aborted)}


def _oracle_amplitudes(args, result):
    payload, n = args[:2]
    return {"amplitudes": 1 << (n * payload.length)}


# (module, attribute, span name, counter) for every call site the benchmark
# observes. A site the module no longer has is skipped and reads as 0.
SITES = (
    (protocol, "measure_qubits", "statevec.measure_qubits", _measure_bytes),
    (adversary, "measure_qubits", "statevec.measure_qubits", _measure_bytes),
    (protocol, "apply_phase_flip", "statevec.apply_phase_flip", None),
    (analysis, "apply_phase_flip", "statevec.apply_phase_flip", None),
    (analysis, "distribution", "statevec.distribution", None),
    (analysis, "prepare_ghz", "statevec.prepare_ghz", None),
    (adversary, "prepare_ghz", "statevec.prepare_ghz", None),
    (distribution, "prepare_ghz", "statevec.prepare_ghz", None),
    (distribution, "prepare_hadamard_product", "statevec.prepare_hadamard_product", None),
    (adversary, "prepare_basis", "statevec.prepare_basis", None),
    (adversary, "tensor", "statevec.tensor", None),
    (adversary, "swap_qubits", "statevec.swap_qubits", None),
    (adversary, "apply_cnot", "statevec.apply_cnot", None),
    (protocol, "build_plan", "distribution.build_plan", _plan_tuples),
    (protocol, "dispatch", "distribution.dispatch", None),
    (protocol, "attack_tuple", "adversary.attack_tuple", None),
    (protocol, "eve_postprocess", "adversary.eve_postprocess", None),
    (protocol, "run_validation", "protocol.validation", _validation_counts),
    (protocol, "embed_secret", "protocol.embedding", None),
    (protocol, "decrypt_and_measure", "protocol.decryption", None),
    (protocol, "classical_exchange", "protocol.exchange", _exchange_counts),
    (protocol, "recover_secret", "protocol.recovery", None),
    (analysis, "execute_run", "protocol.execute_run", _run_counts),
    (analysis, "check_transcript_secrecy", "protocol.secrecy_check", None),
    (analysis, "detection_experiment", "analysis.experiment", None),
    (analysis, "joint_oracle", "analysis.joint_oracle", _oracle_amplitudes),
    (analysis, "factorized_oracle", "analysis.factorized_oracle", None),
    (analysis, "analytic_sample_keys", "analysis.sampler", None),
    (analysis, "support_violations", "analysis.sample_check", None),
    (analysis, "sample_pvalue", "analysis.sample_check", None),
)

GATES = (
    "statevec.apply_phase_flip",
    "statevec.distribution",
    "statevec.prepare_ghz",
    "statevec.prepare_hadamard_product",
    "statevec.prepare_basis",
    "statevec.tensor",
    "statevec.swap_qubits",
    "statevec.apply_cnot",
)


class Tracer:
    """Records nested spans of wrapped calls, one op at a time."""

    def __init__(self) -> None:
        # each span is (name, start, end, parent index, op id)
        self.spans: list[tuple | None] = []
        self.counters: dict[tuple[str, str], int] = defaultdict(int)
        self.ops = 0
        self.trials = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                # outside an op (the untimed output checks): not recorded
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.ops)
            if counter is not None:
                for key, value in counter(args, result).items():
                    counters[(name, key)] += value
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, counter in SITES:
            fn = getattr(module, attr, None)
            if fn is not None:
                self._patched.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, counter))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    @contextmanager
    def op(self, trials: int):
        """Root span of one op; time inside it that no layer span covers is
        the unattributed remainder."""
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (OP_SPAN, start, end, -1, self.ops)
            self.ops += 1
            self.trials += trials

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_n, start, end, _p, _o), c in zip(self.spans, child)]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures, normalised per trial (protocol workloads) or per
        config (oracle workload); a trial of the oracle workload is one config."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span, own in zip(self.spans, self.self_times()):
            self_s[span[0]] += own
            calls[span[0]] += 1
        per = max(self.trials, 1)

        def ms(*names: str) -> float:
            return sum(self_s[n] for n in names) * 1e3 / per

        def count(name: str, key: str) -> float:
            return self.counters[(name, key)] / per

        measure = "statevec.measure_qubits"
        runs = calls["protocol.execute_run"]
        return {
            f"{measure}.calls_per_trial": calls[measure] / per,
            f"{measure}.us_per_call": self_s[measure] * 1e6 / calls[measure] if calls[measure] else 0.0,
            f"{measure}.computed_mb_per_trial": count(measure, "computed_bytes") / 1e6,
            "statevec.gates.calls_per_trial": sum(calls[g] for g in GATES) / per,
            "statevec.gates.ms_per_trial": ms(*GATES),
            "distribution.build_plan.ms_per_trial": ms("distribution.build_plan"),
            "distribution.dispatch.ms_per_trial": ms("distribution.dispatch"),
            "distribution.tuples_per_trial": count("distribution.build_plan", "tuples"),
            "adversary.attack_tuple.calls_per_trial": calls["adversary.attack_tuple"] / per,
            "adversary.attack_tuple.ms_per_trial": ms("adversary.attack_tuple"),
            "adversary.eve_postprocess.ms_per_trial": ms("adversary.eve_postprocess"),
            "protocol.validation.ms_per_trial": ms("protocol.validation"),
            "protocol.validation.checks_per_trial": count("protocol.validation", "checks"),
            "protocol.validation.errors_per_trial": count("protocol.validation", "errors"),
            "protocol.embedding.ms_per_trial": ms("protocol.embedding"),
            "protocol.decryption.ms_per_trial": ms("protocol.decryption"),
            "protocol.exchange.ms_per_trial": ms("protocol.exchange"),
            "protocol.exchange.messages_per_trial": count("protocol.exchange", "messages"),
            "protocol.recovery.ms_per_trial": ms("protocol.recovery"),
            "protocol.secrecy_check.ms_per_trial": ms("protocol.secrecy_check"),
            "protocol.execute_run.self_ms_per_trial": ms("protocol.execute_run"),
            "protocol.pass_frac": self.counters[("protocol.execute_run", "passes")] / runs if runs else 0.0,
            "analysis.experiment.self_ms_per_trial": ms("analysis.experiment"),
            "analysis.joint_oracle.ms_per_config": ms("analysis.joint_oracle"),
            "analysis.joint_oracle.amplitudes_per_config": count("analysis.joint_oracle", "amplitudes"),
            "analysis.factorized_oracle.ms_per_config": ms("analysis.factorized_oracle"),
            "analysis.sampler.ms_per_config": ms("analysis.sampler"),
            "analysis.sample_check.ms_per_config": ms("analysis.sample_check"),
            "bench.traced_ms_per_trial": sum(s[2] - s[1] for s in self.spans if s[0] == OP_SPAN) * 1e3 / per,
            "bench.unattributed_ms_per_trial": ms(OP_SPAN),
        }

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, op."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
