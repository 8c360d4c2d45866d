import numpy as np
import pytest

from ghzcast import BitVector
from ghzcast.bitvec import bit_vectors, split
from ghzcast.protocol import RunStack, Scenario, run_trials


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def example_secrets():
    """The two three-bit secrets used throughout: agent_0 gets 010."""
    return (BitVector.from_text("010"), BitVector.from_text("101"))


def lone_run(scenario: Scenario) -> tuple[RunStack, tuple[BitVector, ...]]:
    """A run at the scenario's seed as its stack of one, and Eve's guess of
    every agent's secret, split from the stack's one guess row."""
    stack = next(run_trials(scenario, [scenario.seed]))
    return stack, split(bit_vectors(stack.guesses)[0], stack.layout)
