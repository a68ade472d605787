"""Unit tests for the flooding and Eq.-3-only policies, and the registry."""

import pytest

from repro.core.dissemination import available_policies, make_policy
from repro.errors import ConfigurationError, DisseminationError


def test_flooding_forwards_every_distinct_value():
    policy = make_policy("flooding")
    policy.register_edge(0, 1, 7, 0.5, 1.0)
    assert policy.decide(0, 1, 7, 1.01, 0.0, None).forward
    assert policy.decide(0, 1, 7, 1.02, 0.0, None).forward


def test_flooding_skips_pure_repeats():
    policy = make_policy("flooding")
    policy.register_edge(0, 1, 7, 0.5, 1.0)
    assert not policy.decide(0, 1, 7, 1.0, 0.0, None).forward  # initial repeat
    assert policy.decide(0, 1, 7, 1.5, 0.0, None).forward
    assert not policy.decide(0, 1, 7, 1.5, 0.0, None).forward


def test_flooding_source_passthrough():
    policy = make_policy("flooding")
    decision = policy.at_source(7, 2.0)
    assert decision.disseminate and decision.checks == 0


def test_eq3_only_suppresses_within_tolerance():
    policy = make_policy("eq3_only")
    policy.register_edge(0, 1, 7, 0.5, 1.0)
    assert not policy.decide(0, 1, 7, 1.4, 0.3, None).forward
    assert policy.decide(0, 1, 7, 1.6, 0.3, None).forward


def test_eq3_only_ignores_parent_receive_c():
    # This is exactly what makes it unsound: a tiny remaining slack does
    # not trigger a forward.
    policy = make_policy("eq3_only")
    policy.register_edge(0, 1, 7, 0.5, 1.0)
    assert not policy.decide(0, 1, 7, 1.49, parent_receive_c=0.3, tag=None).forward


def test_eq3_only_unregistered_edge_raises():
    policy = make_policy("eq3_only")
    with pytest.raises(DisseminationError):
        policy.decide(0, 1, 7, 1.0, 0.0, None)


def test_registry_names():
    assert available_policies() == [
        "centralized",
        "distributed",
        "eq3_only",
        "flooding",
    ]


def test_registry_constructs_fresh_instances():
    a = make_policy("distributed")
    b = make_policy("distributed")
    assert a is not b
    assert a.name == "distributed"


def test_registry_case_insensitive():
    assert make_policy("FLOODING").name == "flooding"


def test_registry_unknown_rejected():
    with pytest.raises(ConfigurationError):
        make_policy("gossip")
