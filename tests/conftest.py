import dataclasses

import pytest
from hypothesis import settings

from sepaird.params import SimParams

# property tests run numpy-heavy bodies; the default deadline is too twitchy
settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@pytest.fixture
def base_params() -> SimParams:
    return SimParams()


@pytest.fixture
def tiny_params():
    """Small fast world factory; overrides apply on top of a 200-agent base."""

    def make(**overrides) -> SimParams:
        p = SimParams(n_agents=200, n_initial_infected=5, horizon=40, seed=7)
        return dataclasses.replace(p, **overrides)

    return make
