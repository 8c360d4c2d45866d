"""Simulator and analysis toolkit for one-to-many secret broadcast over
GHZ-entangled qubit registers.

One broker holds a distinct secret bit vector for each of n-1 agents. The
secrets are concatenated into a payload, embedded as phase flips on the
broker's half of shared GHZ tuples, and recovered by each agent from a
public exchange of measured registers; decoy qubits interleaved into the
quantum stream expose interference before anything secret-dependent is
sent. See protocol.run_protocol for the orchestrated stages and
analysis.detection_experiment for aggregate statistics.
"""

from .adversary import EveRecord, EveStrategy, attack_tuple, eve_postprocess
from .analysis import (
    CorrelationStat,
    ExperimentStats,
    OutcomeDistribution,
    analytic_sample,
    analytic_sample_keys,
    decoy_correlation_stat,
    detection_experiment,
    explicit_kickback_oracle,
    factorized_oracle,
    joint_oracle,
    sample_pvalue,
    support_violations,
    wilson_interval,
)
from .bitvec import (
    BitVector,
    SegmentLayout,
    concat_secrets,
    inner_product_mod2,
    parity_census,
    segment,
    xor_all,
)
from .distribution import DistributionPlan, build_plan
from .protocol import (
    RunOutcome,
    Scenario,
    Transcript,
    check_transcript_secrecy,
    execute_run,
    recover_secret,
    run_protocol,
)
from .statevec import PureState, ghz_layers, prepare_ghz

__all__ = [
    "BitVector",
    "CorrelationStat",
    "DistributionPlan",
    "EveRecord",
    "EveStrategy",
    "ExperimentStats",
    "OutcomeDistribution",
    "PureState",
    "RunOutcome",
    "Scenario",
    "SegmentLayout",
    "Transcript",
    "analytic_sample",
    "analytic_sample_keys",
    "attack_tuple",
    "build_plan",
    "check_transcript_secrecy",
    "concat_secrets",
    "decoy_correlation_stat",
    "detection_experiment",
    "eve_postprocess",
    "execute_run",
    "explicit_kickback_oracle",
    "factorized_oracle",
    "ghz_layers",
    "inner_product_mod2",
    "joint_oracle",
    "parity_census",
    "prepare_ghz",
    "recover_secret",
    "run_protocol",
    "sample_pvalue",
    "segment",
    "support_violations",
    "wilson_interval",
    "xor_all",
]
