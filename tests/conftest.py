"""Shared fixtures and Hypothesis settings for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.engine.builder import build_setup
from repro.engine.config import SCALE_PRESETS

#: One verdict per commit: every property test draws the same examples on
#: every run (seeded from the test itself), and on CI no example database
#: carries a previous run's finds into the next.  A red derandomized draw
#: is a real counterexample: pin it with ``@example``.
settings.register_profile(
    "tier1", derandomize=True, **({"database": None} if os.environ.get("CI") else {})
)
#: Fresh draws every run, for the scheduled property job
#: (``--hypothesis-profile=randomized``).  Per-test ``max_examples`` pins
#: win over a profile, so that job gets its extra examples from passes.
settings.register_profile(
    "randomized", derandomize=False, database=None, max_examples=500
)
settings.load_profile("tier1")


def pytest_configure(config):
    # A profile named on the command line wins over the default, however
    # late this conftest is loaded.
    profile = config.getoption("--hypothesis-profile")
    if profile:
        settings.load_profile(profile)


@pytest.fixture(autouse=True, scope="session")
def _isolated_cache_root(tmp_path_factory):
    """Point the experiment cache at a session tmp dir.

    Keeps the suite hermetic: replay corpora and any cache writes land
    in pytest's tmp tree instead of ``~/.cache/repro``.
    """
    import os

    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    yield
    os.environ.pop("REPRO_CACHE_DIR", None)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for structure-level randomness."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_setup():
    """One prebuilt tiny-scale setup shared by read-only tests."""
    return build_setup(SCALE_PRESETS["tiny"].with_(offered_degree=4))


@pytest.fixture(scope="session")
def tiny_zero_delay_setup():
    """Tiny setup on an idealised zero-delay, zero-computation system."""
    config = SCALE_PRESETS["tiny"].with_(
        offered_degree=4, comm_target_ms=0.0, comp_delay_ms=0.0
    )
    return build_setup(config)
