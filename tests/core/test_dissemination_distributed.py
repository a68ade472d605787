"""Unit tests for the distributed (Eq. 3 + Eq. 7) policy."""

import pytest

from repro.core.dissemination import make_policy as _make_policy
from repro.core.dissemination.filtering import (
    forward_distributed as should_forward_distributed,
)
from repro.errors import DisseminationError


# ----------------------------------------------------------------------
# The pure decision function
# ----------------------------------------------------------------------


def test_eq3_violation_forwards():
    assert should_forward_distributed(1.6, 1.0, c_serve=0.5, parent_receive_c=0.0)


def test_within_tolerance_and_slack_not_forwarded():
    # Deviation 0.1 of tolerance 0.5, parent's own c is 0.3:
    # slack 0.4 >= 0.3, so the child cannot silently drift out of sync.
    assert not should_forward_distributed(1.1, 1.0, c_serve=0.5, parent_receive_c=0.3)


def test_eq7_low_slack_forwards():
    # Deviation 0.4 of tolerance 0.5 leaves slack 0.1 < c_p = 0.3: the
    # next parent-visible update could overshoot without being seen.
    assert should_forward_distributed(1.4, 1.0, c_serve=0.5, parent_receive_c=0.3)


def test_source_semantics_reduce_to_eq3():
    # At the source c_p = 0: Eq. (7) degenerates to Eq. (3).
    assert not should_forward_distributed(1.5, 1.0, c_serve=0.5, parent_receive_c=0.0)
    assert should_forward_distributed(1.51, 1.0, c_serve=0.5, parent_receive_c=0.0)


def test_negative_direction_symmetric():
    assert should_forward_distributed(0.4, 1.0, c_serve=0.5, parent_receive_c=0.0)
    assert should_forward_distributed(0.7, 1.0, c_serve=0.5, parent_receive_c=0.3)


# ----------------------------------------------------------------------
# The stateful policy
# ----------------------------------------------------------------------


def make_policy():
    policy = _make_policy("distributed")
    policy.register_edge(parent=0, child=1, item_id=7, c_serve=0.5, initial_value=1.0)
    return policy


def test_at_source_always_disseminates_without_checks():
    policy = make_policy()
    decision = policy.at_source(7, 1.4)
    assert decision.disseminate
    assert decision.tag is None
    assert decision.checks == 0


def test_decide_updates_last_sent_on_forward():
    policy = make_policy()
    first = policy.decide(0, 1, 7, 1.6, parent_receive_c=0.0, tag=None)
    assert first.forward
    # Now 1.6 is the last sent value: 1.7 deviates only 0.1 -> keep.
    second = policy.decide(0, 1, 7, 1.7, parent_receive_c=0.0, tag=None)
    assert not second.forward


def test_decide_keeps_last_sent_on_suppress():
    policy = make_policy()
    assert not policy.decide(0, 1, 7, 1.2, 0.0, None).forward
    assert not policy.decide(0, 1, 7, 1.4, 0.0, None).forward
    # Cumulative drift from the original 1.0 finally crosses 0.5.
    assert policy.decide(0, 1, 7, 1.6, 0.0, None).forward


def test_each_edge_has_independent_state():
    policy = _make_policy("distributed")
    policy.register_edge(0, 1, 7, 0.5, 1.0)
    policy.register_edge(0, 2, 7, 0.1, 1.0)
    assert not policy.decide(0, 1, 7, 1.2, 0.0, None).forward
    assert policy.decide(0, 2, 7, 1.2, 0.0, None).forward


def test_unregistered_edge_raises():
    policy = make_policy()
    with pytest.raises(DisseminationError):
        policy.decide(0, 99, 7, 1.0, 0.0, None)


def test_decision_counts_one_check():
    policy = make_policy()
    assert policy.decide(0, 1, 7, 1.1, 0.0, None).checks == 1
