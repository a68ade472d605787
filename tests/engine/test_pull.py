"""Tests for the pull-based baselines (fixed and adaptive TTR)."""

import math

import pytest

from repro.engine.builder import build_setup
from repro.engine.config import SCALE_PRESETS
from repro.engine.pull import PullSimulation, TtrConfig, run_pull_simulation
from repro.engine.simulation import run_simulation
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def setup():
    return build_setup(
        SCALE_PRESETS["tiny"].with_(
            n_items=4, trace_samples=400, offered_degree=4, t_percent=80.0
        )
    )


def test_ttr_config_validation():
    with pytest.raises(ConfigurationError):
        TtrConfig(mode="weird")
    with pytest.raises(ConfigurationError):
        TtrConfig(ttr_s=0.0)
    with pytest.raises(ConfigurationError):
        TtrConfig(ttr_min_s=10.0, ttr_max_s=1.0)
    with pytest.raises(ConfigurationError):
        TtrConfig(shrink=1.5)
    with pytest.raises(ConfigurationError):
        TtrConfig(grow=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigurationError):
            TtrConfig(ttr_s=bad)
    with pytest.raises(ConfigurationError):
        TtrConfig(grow=math.nan)
    with pytest.raises(ConfigurationError):
        TtrConfig(ttr_min_s=1.0, ttr_max_s=math.inf)


def test_fixed_pull_produces_result(setup):
    result = run_pull_simulation(setup, TtrConfig(mode="fixed", ttr_s=5.0))
    assert 0.0 <= result.loss_of_fidelity <= 100.0
    assert result.messages > 0
    assert result.counters.deliveries > 0
    assert result.extras["mode"] == "pull-fixed"


def test_two_messages_per_poll(setup):
    result = run_pull_simulation(setup, TtrConfig(mode="fixed", ttr_s=5.0))
    # Every completed poll costs a request plus a response.
    assert result.messages == 2 * result.counters.source_checks


def test_shorter_ttr_improves_fidelity(setup):
    fast = run_pull_simulation(setup, TtrConfig(mode="fixed", ttr_s=2.0))
    slow = run_pull_simulation(setup, TtrConfig(mode="fixed", ttr_s=30.0))
    assert fast.loss_of_fidelity < slow.loss_of_fidelity
    assert fast.messages > slow.messages


def test_adaptive_between_extremes(setup):
    fast = run_pull_simulation(setup, TtrConfig(mode="fixed", ttr_s=1.0))
    slow = run_pull_simulation(setup, TtrConfig(mode="fixed", ttr_s=60.0))
    adaptive = run_pull_simulation(
        setup,
        TtrConfig(mode="adaptive", ttr_s=10.0, ttr_min_s=1.0, ttr_max_s=60.0),
    )
    assert slow.loss_of_fidelity > adaptive.loss_of_fidelity
    assert adaptive.messages < fast.messages


def test_adaptive_shrinks_ttr_on_hot_items(setup):
    sim = PullSimulation(
        setup,
        TtrConfig(mode="adaptive", ttr_s=30.0, ttr_min_s=1.0, ttr_max_s=60.0),
    )
    sim.run()
    ttrs = list(sim._current_ttr.values())
    # At least some subscriptions reacted to changes.
    assert any(t != 30.0 for t in ttrs)
    assert all(1.0 <= t <= 60.0 for t in ttrs)


def test_push_dominates_pull_at_equal_or_less_traffic(setup):
    push = run_simulation(setup.config, setup=setup)
    pull = run_pull_simulation(setup, TtrConfig(mode="fixed", ttr_s=5.0))
    # The cooperative push gets strictly better fidelity...
    assert push.loss_of_fidelity < pull.loss_of_fidelity
    # ...and the pull source does at least as much work per useful byte:
    # every poll costs a source check even when nothing changed.
    assert pull.counters.source_checks > 0


def test_pull_determinism(setup):
    a = run_pull_simulation(setup, TtrConfig(mode="adaptive", ttr_s=10.0))
    b = run_pull_simulation(setup, TtrConfig(mode="adaptive", ttr_s=10.0))
    assert a.loss_of_fidelity == b.loss_of_fidelity
    assert a.messages == b.messages
