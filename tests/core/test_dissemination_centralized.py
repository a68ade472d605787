"""Unit tests for the centralised (source-based, tagging) policy."""

import pytest

from repro.core.dissemination import make_policy as _make_policy
from repro.core.dissemination.filtering import tag_for_update
from repro.errors import DisseminationError


def make_policy():
    """Three repositories at tolerances 0.1 / 0.3 / 0.5, initial value 1.0."""
    policy = _make_policy("centralized")
    policy.register_edge(0, 1, 7, 0.1, 1.0)
    policy.register_edge(0, 2, 7, 0.3, 1.0)
    policy.register_edge(2, 3, 7, 0.5, 1.0)
    return policy


def test_unique_tolerances_sorted_and_deduped():
    policy = make_policy()
    policy.register_edge(1, 4, 7, 0.3, 1.0)  # duplicate 0.3
    assert policy.unique_tolerances(7) == [0.1, 0.3, 0.5]


def test_tag_for_update_picks_max_violated():
    last = {0.1: 1.0, 0.3: 1.0, 0.5: 1.0}
    assert tag_for_update(1.35, [0.1, 0.3, 0.5], last) == 0.3
    assert tag_for_update(1.05, [0.1, 0.3, 0.5], last) is None
    assert tag_for_update(2.0, [0.1, 0.3, 0.5], last) == 0.5


def test_at_source_counts_one_check_per_unique_tolerance():
    policy = make_policy()
    decision = policy.at_source(7, 1.2)
    assert decision.checks == 3


def test_at_source_tags_and_records_last_sent():
    policy = make_policy()
    decision = policy.at_source(7, 1.35)
    assert decision.disseminate
    assert decision.tag == pytest.approx(0.3)
    # Tolerances <= tag saw the new value; 0.5 still anchors at 1.0.
    follow_up = policy.at_source(7, 1.46)
    # 1.46: vs 1.35 -> 0.11 > 0.1 violated; vs 1.0 -> 0.46 < 0.5 not.
    assert follow_up.tag == pytest.approx(0.1)


def test_at_source_drops_uninteresting_update():
    policy = make_policy()
    decision = policy.at_source(7, 1.05)
    assert not decision.disseminate
    assert decision.tag is None
    assert decision.checks == 3


def test_at_source_unknown_item_drops():
    policy = make_policy()
    decision = policy.at_source(99, 1.0)
    assert not decision.disseminate
    assert decision.checks == 0


def test_decide_forwards_by_tag_threshold():
    policy = make_policy()
    decision = policy.at_source(7, 1.35)  # tag 0.3
    assert policy.decide(0, 1, 7, 1.35, 0.0, decision.tag).forward  # c=0.1
    assert policy.decide(0, 2, 7, 1.35, 0.0, decision.tag).forward  # c=0.3
    assert not policy.decide(2, 3, 7, 1.35, 0.3, decision.tag).forward  # c=0.5


def test_decide_requires_tag():
    policy = make_policy()
    with pytest.raises(DisseminationError):
        policy.decide(0, 1, 7, 1.35, 0.0, None)


def test_decide_unregistered_edge_raises():
    policy = make_policy()
    decision = policy.at_source(7, 2.0)
    with pytest.raises(DisseminationError):
        policy.decide(0, 99, 7, 2.0, 0.0, decision.tag)


def test_cumulative_small_moves_eventually_tagged():
    policy = make_policy()
    values = [1.02, 1.04, 1.06, 1.08, 1.11]
    tags = [policy.at_source(7, v).tag for v in values]
    assert tags[:4] == [None, None, None, None]
    assert tags[4] == pytest.approx(0.1)


def test_float_noise_in_tolerances_collapses():
    policy = _make_policy("centralized")
    policy.register_edge(0, 1, 7, 0.1, 1.0)
    policy.register_edge(0, 2, 7, 0.1 + 1e-12, 1.0)
    assert len(policy.unique_tolerances(7)) == 1
