"""Unit tests for interest-profile generation."""

import numpy as np
import pytest

from repro.core.interests import InterestProfile, generate_interests
from repro.core.items import CoherencyMix, DataItem
from repro.errors import ConfigurationError


def make_items(n=10):
    return [DataItem(item_id=i, name=f"I{i}") for i in range(n)]


def test_profile_basics():
    profile = InterestProfile(repository=5, requirements={1: 0.05, 3: 0.5})
    assert len(profile) == 2
    assert 1 in profile and 2 not in profile
    assert profile.items == [1, 3]
    assert profile.requirements[3] == 0.5


def test_empty_profile_has_no_items():
    assert InterestProfile(repository=1).items == []


def test_profile_rejects_nonpositive_tolerance():
    with pytest.raises(ConfigurationError):
        InterestProfile(repository=1, requirements={0: 0.0})


def test_generate_covers_all_repositories():
    profiles = generate_interests(
        [1, 2, 3], make_items(), CoherencyMix(50.0), np.random.default_rng(0)
    )
    assert sorted(profiles) == [1, 2, 3]
    assert all(p.repository == r for r, p in profiles.items())


def test_generate_subscription_rate_near_half():
    profiles = generate_interests(
        list(range(1, 101)),
        make_items(20),
        CoherencyMix(50.0),
        np.random.default_rng(1),
    )
    total = sum(len(p) for p in profiles.values())
    assert 800 < total < 1200  # ~1000 expected


def test_generate_never_empty_by_default():
    profiles = generate_interests(
        list(range(1, 51)),
        make_items(1),  # single item: ~half the repos would draw nothing
        CoherencyMix(50.0),
        np.random.default_rng(2),
    )
    assert all(len(p) >= 1 for p in profiles.values())


def test_generate_tolerances_respect_mix():
    profiles = generate_interests(
        list(range(1, 21)),
        make_items(),
        CoherencyMix(100.0),
        np.random.default_rng(3),
    )
    for p in profiles.values():
        assert all(c <= 0.099 for c in p.requirements.values())


def test_generate_full_subscription():
    profiles = generate_interests(
        [1, 2],
        make_items(5),
        CoherencyMix(50.0),
        np.random.default_rng(4),
        subscription_probability=1.0,
    )
    assert all(len(p) == 5 for p in profiles.values())


def test_generate_invalid_probability_rejected():
    with pytest.raises(ConfigurationError):
        generate_interests(
            [1], make_items(), CoherencyMix(50.0), np.random.default_rng(0),
            subscription_probability=0.0,
        )


def test_generate_no_items_rejected():
    with pytest.raises(ConfigurationError):
        generate_interests([1], [], CoherencyMix(50.0), np.random.default_rng(0))


def test_generate_deterministic():
    a = generate_interests(
        [1, 2, 3], make_items(), CoherencyMix(50.0), np.random.default_rng(7)
    )
    b = generate_interests(
        [1, 2, 3], make_items(), CoherencyMix(50.0), np.random.default_rng(7)
    )
    assert {r: p.requirements for r, p in a.items()} == {
        r: p.requirements for r, p in b.items()
    }
