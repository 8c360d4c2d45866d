"""Simulator and analysis toolkit for one-to-many secret broadcast over
GHZ-entangled qubit registers.

One broker holds a distinct secret bit vector for each of n-1 agents. The
secrets are concatenated into a payload, embedded as phase flips on the
broker's half of shared GHZ tuples, and recovered by each agent from a
public exchange of measured registers; decoy qubits interleaved into the
quantum stream expose interference before anything secret-dependent is
sent. See protocol.run_protocol for the orchestrated stages and
analysis.detection_experiment for aggregate statistics; everything else is
imported from its module.
"""

from .adversary import EveStrategy
from .analysis import detection_experiment, joint_oracle
from .bitvec import BitVector, concat_secrets
from .protocol import Scenario, run_protocol

__all__ = [
    "BitVector",
    "EveStrategy",
    "Scenario",
    "concat_secrets",
    "detection_experiment",
    "joint_oracle",
    "run_protocol",
]
