"""Tests for the adaptive push-pull hybrid plane split."""

import math

import pytest

from repro.core.interests import InterestProfile
from repro.engine.config import SCALE_PRESETS
from repro.engine.hybrid import run_hybrid_simulation, split_profiles
from repro.engine.simulation import run_simulation
from repro.errors import ConfigurationError


def profiles():
    return {
        1: InterestProfile(1, {0: 0.05, 1: 0.5}),
        2: InterestProfile(2, {0: 0.02}),
        3: InterestProfile(3, {1: 0.9}),
    }


def test_split_by_threshold():
    push, pull = split_profiles(profiles(), threshold_c=0.1)
    assert set(push) == {1, 2}
    assert set(pull) == {1, 3}
    assert push[1].requirements == {0: 0.05}
    assert pull[1].requirements == {1: 0.5}


def test_split_boundary_is_inclusive_for_push():
    push, pull = split_profiles({1: InterestProfile(1, {0: 0.1})}, 0.1)
    assert 1 in push and 1 not in pull


def test_split_invalid_threshold():
    with pytest.raises(ConfigurationError):
        split_profiles(profiles(), 0.0)
    with pytest.raises(ConfigurationError):
        split_profiles(profiles(), math.nan)
    # +inf is legal: every subscription pushes.
    push, pull = split_profiles(profiles(), math.inf)
    assert set(push) == {1, 2, 3} and not pull


@pytest.fixture(scope="module")
def hybrid_config():
    return SCALE_PRESETS["tiny"].with_(
        n_items=6, trace_samples=500, t_percent=50.0, offered_degree=4
    )


def test_hybrid_runs_and_partitions_everything(hybrid_config):
    result = run_hybrid_simulation(hybrid_config)
    assert 0.0 <= result.loss_of_fidelity <= 100.0
    assert result.push_pairs > 0
    assert result.pull_pairs > 0
    assert result.messages == result.push_messages + result.pull_messages


def test_hybrid_covers_all_pairs(hybrid_config):
    from repro.engine.builder import build_setup

    setup = build_setup(hybrid_config)
    total_pairs = sum(len(p) for p in setup.profiles.values())
    result = run_hybrid_simulation(hybrid_config)
    assert result.push_pairs + result.pull_pairs == total_pairs


def test_all_push_when_threshold_huge(hybrid_config):
    result = run_hybrid_simulation(hybrid_config, threshold_c=100.0)
    assert result.pull_pairs == 0
    assert result.pull_messages == 0


def test_all_pull_when_threshold_tiny(hybrid_config):
    result = run_hybrid_simulation(hybrid_config, threshold_c=1e-6)
    assert result.push_pairs == 0
    assert result.push_messages == 0


def test_hybrid_saves_messages_versus_pure_push_of_everything(hybrid_config):
    # The pull plane only polls; for lax items that beats pushing every
    # qualifying change... at least it must not *inflate* push traffic.
    pure = run_simulation(hybrid_config)
    hybrid = run_hybrid_simulation(hybrid_config)
    assert hybrid.push_messages < pure.messages


def test_hybrid_fidelity_between_pure_extremes(hybrid_config):
    pure_push = run_simulation(hybrid_config)
    hybrid = run_hybrid_simulation(hybrid_config)
    # Push everything is the fidelity upper bound at this scale.
    assert hybrid.loss_of_fidelity >= pure_push.loss_of_fidelity


def test_hybrid_deterministic(hybrid_config):
    a = run_hybrid_simulation(hybrid_config)
    b = run_hybrid_simulation(hybrid_config)
    assert a.loss_of_fidelity == b.loss_of_fidelity
    assert a.messages == b.messages
