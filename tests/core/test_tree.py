"""Unit tests for the dissemination graph structure."""

import pytest

from repro.core.tree import DisseminationGraph
from repro.errors import TreeConstructionError


def simple_graph():
    """source(0) -> A(1) -> B(2), item 7 at c=0.1 / 0.5."""
    graph = DisseminationGraph(source=0)
    graph.add_node(1, level=1, own_c={7: 0.1})
    graph.connect(0, 1, 7, 0.1)
    graph.add_node(2, level=2, own_c={7: 0.5})
    graph.connect(1, 2, 7, 0.5)
    return graph


def test_source_always_receives_at_zero():
    graph = simple_graph()
    assert graph.receive_c(0, 7) == 0.0
    assert graph.receive_c(0, 999) == 0.0


def test_connect_sets_parent_and_children():
    graph = simple_graph()
    assert graph.nodes[2].parent_for[7] == 1
    assert graph.children_for_item(1, 7) == [(2, 0.5)]
    assert graph.children_for_item(0, 7) == [(1, 0.1)]


def test_n_dependents_counts_push_connections_not_items():
    graph = DisseminationGraph(source=0)
    graph.add_node(1, level=1, own_c={1: 0.1, 2: 0.2})
    graph.connect(0, 1, 1, 0.1)
    graph.connect(0, 1, 2, 0.2)
    assert graph.n_dependents(0) == 1  # one child, two items


def test_duplicate_node_rejected():
    graph = simple_graph()
    with pytest.raises(TreeConstructionError):
        graph.add_node(1, level=1, own_c={})


def test_level_skipping_rejected():
    graph = DisseminationGraph(source=0)
    with pytest.raises(TreeConstructionError):
        graph.add_node(1, level=2, own_c={})


def test_repository_at_level_zero_rejected():
    graph = DisseminationGraph(source=0)
    with pytest.raises(TreeConstructionError):
        graph.add_node(1, level=0, own_c={})


def test_second_parent_for_same_item_rejected():
    graph = simple_graph()
    graph.add_node(3, level=1, own_c={7: 0.05})
    graph.connect(0, 3, 7, 0.05)
    with pytest.raises(TreeConstructionError):
        graph.connect(3, 2, 7, 0.5)  # node 2 already served by 1


def test_parent_without_item_rejected():
    graph = DisseminationGraph(source=0)
    graph.add_node(1, level=1, own_c={1: 0.1})
    graph.connect(0, 1, 1, 0.1)
    graph.add_node(2, level=2, own_c={2: 0.1})
    with pytest.raises(TreeConstructionError):
        graph.connect(1, 2, 2, 0.1)  # node 1 does not receive item 2


def test_laxer_parent_rejected_eq1():
    graph = DisseminationGraph(source=0)
    graph.add_node(1, level=1, own_c={7: 0.5})
    graph.connect(0, 1, 7, 0.5)
    graph.add_node(2, level=2, own_c={7: 0.1})
    with pytest.raises(TreeConstructionError):
        graph.connect(1, 2, 7, 0.1)  # parent receives at 0.5 > 0.1


def test_tighten_lowers_receive_c():
    graph = simple_graph()
    graph.tighten(1, 7, 0.05)
    assert graph.receive_c(1, 7) == 0.05


def test_tighten_never_loosens():
    graph = simple_graph()
    graph.tighten(1, 7, 0.9)
    assert graph.receive_c(1, 7) == 0.1


def test_tighten_unknown_item_rejected():
    graph = simple_graph()
    with pytest.raises(TreeConstructionError):
        graph.tighten(1, 99, 0.05)


def test_item_parents_and_depth():
    graph = simple_graph()
    assert {n: s.parent_for[7] for n, s in graph.nodes.items() if 7 in s.parent_for} == {
        1: 0, 2: 1,
    }
    assert graph.item_depth(1, 7) == 1
    assert graph.item_depth(2, 7) == 2


def test_interested_repositories():
    graph = simple_graph()
    assert [n for n in graph.repositories if 7 in graph.nodes[n].receive_c] == [1, 2]
    assert not any(99 in graph.nodes[n].receive_c for n in graph.repositories)


def test_stats_shape():
    graph = simple_graph()
    stats = graph.stats()
    assert stats.n_nodes == 3
    assert stats.n_levels == 3
    assert stats.max_depth == 2
    assert stats.diameter_hops == 2
    assert stats.max_dependents == 1


def test_validate_accepts_wellformed():
    simple_graph().validate()


def test_validate_catches_capacity_violation():
    graph = simple_graph()
    with pytest.raises(TreeConstructionError):
        graph.validate(max_dependents={0: 0})


def test_validate_catches_receive_laxer_than_own():
    graph = simple_graph()
    # Corrupt: node receives more laxly than its own users need.
    graph.nodes[2].receive_c[7] = 0.9
    with pytest.raises(TreeConstructionError):
        graph.validate()


def test_validate_catches_eq1_violation():
    graph = simple_graph()
    graph.nodes[1].receive_c[7] = 0.7  # now laxer than child's 0.5
    graph.nodes[1].own_c[7] = 0.7
    with pytest.raises(TreeConstructionError):
        graph.validate()


def test_repositories_listing():
    graph = simple_graph()
    assert graph.repositories == [1, 2]
