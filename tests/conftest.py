"""Shared fixtures for the test suite.

The integration tests run full simulations; to keep the suite fast they use small
systems (n in 4..7) and horizons of a few hundred virtual time units, which the
smoke experiments in DESIGN.md showed to be comfortably beyond the stabilisation
times of the paper's algorithms under every scenario exercised here.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core.config import OmegaConfig

# Tier-1 is an acceptance gate comparing two commits, so it must run the same
# examples on both: with ``derandomize`` every property draws from a seed
# derived from its own test function instead of from the clock, and no example
# database carries one run's finds into the next.  Registered here (loaded
# before any test module) so the per-test ``@settings(...)`` inherit it.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture
def quick_config() -> OmegaConfig:
    """A configuration with the default (paper-faithful) time constants."""
    return OmegaConfig(alive_period=1.0, timeout_unit=1.0)


@pytest.fixture
def small_system_params():
    """(n, t) used by most integration tests: 5 processes, 2 may crash."""
    return 5, 2


@pytest.fixture
def medium_system_params():
    """(n, t) used by the scenarios that need winning-message blockers."""
    return 7, 3
