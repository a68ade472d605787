"""Tests for repository membership dynamics (join / leave / update)."""

import pytest

from repro.core.dynamics import DynamicMembership, ReconfigurationDiff
from repro.core.interests import InterestProfile
from repro.errors import TreeConstructionError


def flat_delay(u, v):
    return 0.0 if u == v else 10.0


def membership(degree=2):
    return DynamicMembership(
        source=0, comm_delay_ms=flat_delay, offered_degree=degree, seed=7
    )


def profile(repo, reqs):
    return InterestProfile(repository=repo, requirements=reqs)


def test_join_adds_edges_only():
    m = membership()
    diff = m.join(profile(1, {0: 0.1}))
    assert diff.added and not diff.removed
    assert m.members == [1]
    assert 1 in m.graph.nodes


def test_joins_grow_the_graph_incrementally():
    m = membership()
    for repo in (1, 2, 3, 4):
        m.join(profile(repo, {0: 0.1 * repo}))
    assert m.members == [1, 2, 3, 4]
    m.graph.validate()
    # Degree 2 at the source: someone had to land at level 2.
    assert m.graph.stats().max_depth >= 2


def test_duplicate_join_rejected():
    m = membership()
    m.join(profile(1, {0: 0.1}))
    with pytest.raises(TreeConstructionError):
        m.join(profile(1, {0: 0.2}))


def test_leave_removes_the_node_and_rehomes_children():
    m = membership()
    for repo in (1, 2, 3, 4, 5):
        m.join(profile(repo, {0: 0.1}))
    diff = m.leave(3)
    assert 3 not in m.graph.nodes
    assert m.members == [1, 2, 4, 5]
    m.graph.validate()
    # Remaining members must all still be served.
    for repo in (1, 2, 4, 5):
        assert 0 in m.graph.nodes[repo].receive_c
    assert isinstance(diff, ReconfigurationDiff)


def test_leave_unknown_rejected():
    m = membership()
    with pytest.raises(TreeConstructionError):
        m.leave(42)


def test_update_requirements_tightens_service():
    m = membership()
    m.join(profile(1, {0: 0.5}))
    m.join(profile(2, {0: 0.5}))
    diff = m.update_requirements(profile(2, {0: 0.05}))
    assert m.graph.nodes[2].receive_c[0] <= 0.05
    assert diff.cost > 0
    m.graph.validate()


def test_update_requirements_can_add_items():
    m = membership()
    m.join(profile(1, {0: 0.1}))
    m.update_requirements(profile(1, {0: 0.1, 1: 0.3}))
    assert 1 in m.graph.nodes[1].receive_c


def test_update_unknown_rejected():
    m = membership()
    with pytest.raises(TreeConstructionError):
        m.update_requirements(profile(9, {0: 0.1}))


def test_noop_update_costs_nothing():
    m = membership()
    m.join(profile(1, {0: 0.1}))
    m.join(profile(2, {0: 0.2}))
    diff = m.update_requirements(profile(2, {0: 0.2}))
    assert diff.unchanged_is_cheap
    assert diff.cost == 0


def test_a_joined_profile_is_a_member_and_an_unknown_one_is_not():
    m = membership()
    m.join(profile(1, {0: 0.1}))
    assert m.members == [1]
    assert m.graph.nodes[1].own_c == {0: 0.1}
    with pytest.raises(TreeConstructionError, match="not a member"):
        m.leave(2)


def test_capacity_respected_across_dynamics():
    m = membership(degree=1)
    for repo in (1, 2, 3):
        m.join(profile(repo, {0: 0.1}))
    m.leave(2)
    for node in m.graph.nodes:
        assert m.graph.n_dependents(node) <= 1
