"""Unit tests for random topology generation."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.network.delays import ConstantDelayModel, ParetoDelayModel
from repro.network.topology import Topology, generate_topology


def make(n_repos=10, n_routers=30, seed=0, avg_degree=3.0):
    return generate_topology(
        n_repositories=n_repos,
        n_routers=n_routers,
        rng=np.random.default_rng(seed),
        delay_model=ParetoDelayModel(),
        avg_degree=avg_degree,
    )


def test_node_counts_and_id_layout():
    topo = make()
    assert topo.n_nodes == 41
    assert topo.source == 0
    assert list(topo.repository_ids) == list(range(1, 11))


def test_generated_topology_is_connected():
    for seed in range(5):
        assert make(seed=seed).is_connected()


def test_average_degree_near_target():
    topo = make(n_repos=20, n_routers=80, avg_degree=4.0)
    avg = 2.0 * len(topo.edges) / topo.n_nodes
    assert 3.0 <= avg <= 4.5


def test_edges_and_delays_aligned():
    topo = make()
    assert topo.edges.shape[0] == topo.delays_ms.shape[0]
    assert (topo.delays_ms > 0).all()


def test_no_self_loops_or_duplicate_edges():
    topo = make(n_repos=20, n_routers=60)
    assert (topo.edges[:, 0] != topo.edges[:, 1]).all()
    seen = {tuple(sorted(edge)) for edge in topo.edges.tolist()}
    assert len(seen) == len(topo.edges)


def test_reproducible_given_seed():
    a, b = make(seed=42), make(seed=42)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.delays_ms, b.delays_ms)


def test_different_seeds_differ():
    a, b = make(seed=1), make(seed=2)
    assert not (
        a.edges.shape == b.edges.shape and np.array_equal(a.edges, b.edges)
    )


def test_invalid_counts_rejected():
    with pytest.raises(TopologyError):
        make(n_repos=0)
    with pytest.raises(TopologyError):
        make(n_routers=-1)


def test_infeasible_degree_rejected():
    with pytest.raises(TopologyError):
        make(avg_degree=0.5)


def test_zero_routers_supported():
    topo = make(n_repos=5, n_routers=0)
    assert topo.is_connected()
    assert topo.n_nodes == 6


def test_constant_delay_model_plumbs_through():
    topo = generate_topology(
        n_repositories=5,
        n_routers=10,
        rng=np.random.default_rng(0),
        delay_model=ConstantDelayModel(7.0),
    )
    assert (topo.delays_ms == 7.0).all()


def test_mismatched_delays_rejected():
    with pytest.raises(TopologyError):
        Topology(
            n_repositories=1,
            n_routers=0,
            edges=np.array([[0, 1]]),
            delays_ms=np.array([1.0, 2.0]),
        )
