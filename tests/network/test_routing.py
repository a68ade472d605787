"""Unit tests for shortest-path routing between the logical nodes.

``build_routing`` is held bit-identical to the logical block of the
dense Floyd-Warshall reference and to the per-pair walk it replaced
(both in ``reference_routing.py``), and validated against networkx.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.builder import build_setup
from repro.engine.config import SCALE_PRESETS
from repro.errors import TopologyError
from repro.network.delays import ConstantDelayModel, ParetoDelayModel
from repro.network.routing import build_routing
from repro.network.topology import Topology, generate_topology

from reference_routing import elimination_order_sum, floyd_warshall, per_pair_routing


def small_topology():
    #   0 --1ms-- 1 --1ms-- 2
    #    \------10ms-------/
    edges = np.array([[0, 1], [1, 2], [0, 2]])
    delays = np.array([1.0, 1.0, 10.0])
    return Topology(n_repositories=2, n_routers=0, edges=edges, delays_ms=delays)


def reference_block(topo):
    """The Floyd-Warshall reference's tables on the logical ids."""
    n_logical = 1 + topo.n_repositories
    dist, hops = floyd_warshall(topo)
    return dist[:n_logical, :n_logical], hops[:n_logical, :n_logical]


def assert_bit_identical_to_reference(topo, routing=None):
    routing = routing or build_routing(topo)
    ref_dist, ref_hops = reference_block(topo)
    assert np.array_equal(routing.dist_ms, ref_dist)
    assert np.array_equal(routing.hops, ref_hops)


def test_shortest_path_prefers_cheap_two_hop():
    routing = build_routing(small_topology())
    assert routing.dist_ms[0, 2] == 2.0
    assert routing.hops[0, 2] == 2


def test_tables_span_the_logical_nodes_only():
    topo = generate_topology(10, 30, np.random.default_rng(0), ParetoDelayModel())
    routing = build_routing(topo)
    assert routing.dist_ms.shape == routing.hops.shape == (11, 11)
    assert routing.hops.dtype == np.int64


def test_distance_matrix_symmetric_for_undirected_graph():
    topo = generate_topology(
        10, 30, np.random.default_rng(0), ParetoDelayModel()
    )
    routing = build_routing(topo)
    assert np.allclose(routing.dist_ms, routing.dist_ms.T)
    assert np.array_equal(routing.hops, routing.hops.T)


def test_diagonal_is_zero():
    routing = build_routing(small_topology())
    assert (np.diag(routing.dist_ms) == 0).all()
    assert (np.diag(routing.hops) == 0).all()


def test_triangle_inequality_holds():
    topo = generate_topology(
        10, 30, np.random.default_rng(1), ParetoDelayModel()
    )
    d = build_routing(topo).dist_ms
    via = d[:, :, None] + d[None, :, :]  # via[i, k, j] = d[i,k] + d[k,j]
    assert (d <= via.min(axis=1) + 1e-9).all()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_distances_match_networkx_dijkstra(seed):
    topo = generate_topology(
        8, 20, np.random.default_rng(seed), ParetoDelayModel()
    )
    routing = build_routing(topo)
    graph = nx.Graph()
    for (u, v), w in zip(topo.edges, topo.delays_ms):
        graph.add_edge(int(u), int(v), weight=float(w))
    n_logical = 1 + topo.n_repositories
    for u in range(n_logical):
        lengths, paths = nx.single_source_dijkstra(graph, u)
        for v in range(n_logical):
            assert routing.dist_ms[u, v] == pytest.approx(lengths[v])
            assert routing.hops[u, v] == len(paths[v]) - 1


def test_hops_break_delay_ties_minimally():
    # Two equal-delay routes 0->2: direct (1 hop, 2ms) vs via 1 (2 hops, 2ms).
    edges = np.array([[0, 1], [1, 2], [0, 2]])
    delays = np.array([1.0, 1.0, 2.0])
    topo = Topology(n_repositories=2, n_routers=0, edges=edges, delays_ms=delays)
    routing = build_routing(topo)
    assert routing.dist_ms[0, 2] == 2.0
    assert routing.hops[0, 2] == 1


def test_disconnected_graph_rejected():
    edges = np.array([[0, 1]])
    delays = np.array([1.0])
    topo = Topology(n_repositories=2, n_routers=0, edges=edges, delays_ms=delays)
    with pytest.raises(TopologyError):
        build_routing(topo)


def test_router_only_island_rejected():
    # Source and repository are linked; routers 2-3 hang off nothing.
    # The source's search settles everything the source owes at once,
    # yet it runs to the end: that run is the connectivity check.
    edges = np.array([[0, 1], [2, 3]])
    delays = np.array([1.0, 1.0])
    topo = Topology(n_repositories=1, n_routers=2, edges=edges, delays_ms=delays)
    with pytest.raises(TopologyError):
        build_routing(topo)


def test_multi_edge_keeps_cheapest():
    edges = np.array([[0, 1], [0, 1], [1, 2]])
    delays = np.array([5.0, 1.0, 1.0])
    topo = Topology(n_repositories=2, n_routers=0, edges=edges, delays_ms=delays)
    routing = build_routing(topo)
    assert routing.dist_ms[0, 1] == 1.0
    assert_bit_identical_to_reference(topo)


# -- bit-identity with the Floyd-Warshall reference ---------------------

#: Four link delays whose three association orders give three floats.
A, B, C, D = 20.2, 11.1, 3.8, 8.8
LEFT_TO_RIGHT = ((A + B) + C) + D
BALANCED = (A + B) + (C + D)
RIGHT_TO_LEFT = A + (B + (C + D))


@pytest.mark.parametrize(
    "interior, expected",
    [
        ([2, 3, 4], LEFT_TO_RIGHT),
        ([2, 4, 3], BALANCED),
        ([3, 4, 2], BALANCED),
        ([4, 3, 2], RIGHT_TO_LEFT),
    ],
)
def test_sum_follows_elimination_order_of_interior_ids(interior, expected):
    """Path 0 - x - y - z - 1 over routers 2, 3, 4 with the same four
    link delays in path order: which float comes out depends only on
    the order of the interior ids, smallest eliminated first."""
    assert len({LEFT_TO_RIGHT, BALANCED, RIGHT_TO_LEFT}) == 3
    delays = [A, B, C, D]
    assert elimination_order_sum(interior, delays) == expected
    assert elimination_order_sum(interior[::-1], delays[::-1]) == expected

    nodes = [0, *interior, 1]
    topo = Topology(
        n_repositories=1,
        n_routers=3,
        edges=np.array(list(zip(nodes, nodes[1:]))),
        delays_ms=np.array(delays),
    )
    routing = build_routing(topo)
    assert routing.dist_ms[0, 1] == routing.dist_ms[1, 0] == expected
    assert routing.hops[0, 1] == 4
    assert_bit_identical_to_reference(topo)


def test_single_link_path_is_the_link_delay():
    assert elimination_order_sum([], [A]) == A


@settings(max_examples=60, deadline=None)
@given(
    n_repositories=st.integers(1, 15),
    n_routers=st.integers(0, 40),
    avg_degree=st.sampled_from([2.0, 3.0, 4.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_pareto_topologies_match_reference_bitwise(
    n_repositories, n_routers, avg_degree, seed
):
    topo = generate_topology(
        n_repositories,
        n_routers,
        np.random.default_rng(seed),
        ParetoDelayModel(),
        avg_degree=avg_degree,
    )
    assert_bit_identical_to_reference(topo)


def test_extra_endpoints_match_reference_and_nothing_else_is_filled():
    topo = generate_topology(6, 20, np.random.default_rng(4), ParetoDelayModel())
    routers = [topo.n_nodes - 1, topo.n_nodes - 3]
    routing = build_routing(topo, extra_endpoints=routers)
    endpoints = np.array([*range(7), *routers])
    block = np.ix_(endpoints, endpoints)
    ref_dist, ref_hops = floyd_warshall(topo)
    assert routing.dist_ms.shape == ref_dist.shape
    assert np.array_equal(routing.dist_ms[block], ref_dist[block])
    assert np.array_equal(routing.hops[block], ref_hops[block])
    unset = np.ones(ref_dist.shape, dtype=bool)
    unset[block] = False
    assert np.isnan(routing.dist_ms[unset]).all()
    assert (routing.hops[unset] == -1).all()


@pytest.mark.parametrize("seed", [3913, 20020812])
@pytest.mark.parametrize("preset", ["tiny", "small"])
def test_builder_networks_match_reference_bitwise(preset, seed):
    network = build_setup(SCALE_PRESETS[preset].with_(seed=seed)).network
    assert_bit_identical_to_reference(network.topology, network.routing)


@pytest.mark.slow
def test_paper_network_matches_reference_bitwise():
    network = build_setup(SCALE_PRESETS["paper"]).network
    assert_bit_identical_to_reference(network.topology, network.routing)


@pytest.mark.parametrize("delay_ms", [7.0, 0.1])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_constant_delay_topologies_match_reference(seed, delay_ms):
    """Equal link delays tie many paths exactly in the reals; which of
    them supplies the float is not pinned against Floyd-Warshall, the
    hop count is (the per-pair walk pins the float exactly, below)."""
    topo = generate_topology(
        8, 25, np.random.default_rng(seed), ConstantDelayModel(delay_ms)
    )
    routing = build_routing(topo)
    ref_dist, ref_hops = reference_block(topo)
    assert np.array_equal(routing.hops, ref_hops)
    assert routing.dist_ms == pytest.approx(ref_dist)
    assert routing.dist_ms == pytest.approx(delay_ms * routing.hops)


# -- exact equality with the per-pair walk ------------------------------

DELAY_MODELS = {
    "pareto": ParetoDelayModel(),
    "constant-0.1": ConstantDelayModel(0.1),
    "constant-7": ConstantDelayModel(7.0),
}


def assert_equal_to_per_pair_walk(topo, extra_endpoints=()):
    routing = build_routing(topo, extra_endpoints)
    reference = per_pair_routing(topo, extra_endpoints)
    assert np.array_equal(routing.dist_ms, reference.dist_ms, equal_nan=True)
    assert np.array_equal(routing.hops, reference.hops)


@settings(max_examples=80, deadline=None)
@given(
    n_repositories=st.integers(1, 15),
    n_routers=st.integers(0, 40),
    avg_degree=st.sampled_from([2.0, 3.0, 4.5]),
    delay_model=st.sampled_from(sorted(DELAY_MODELS)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_shared_stacks_match_per_pair_walk_exactly(
    n_repositories, n_routers, avg_degree, delay_model, seed, data
):
    """Same trees, ties included, and the same float for every pair --
    also where constant delays tie many paths -- with and without
    extra endpoints."""
    topo = generate_topology(
        n_repositories,
        n_routers,
        np.random.default_rng(seed),
        DELAY_MODELS[delay_model],
        avg_degree=avg_degree,
    )
    routers = topo.router_ids.tolist()
    extra = data.draw(st.lists(st.sampled_from(routers), max_size=3)) if routers else []
    assert_equal_to_per_pair_walk(topo, extra)


@st.composite
def tied_graphs(draw):
    """Small connected graphs over a few coarse delays: delay ties in
    the reals and in floats, multi-edges, leaves and cycles."""
    n_repositories = draw(st.integers(1, 8))
    n_routers = draw(st.integers(0, 12))
    n = 1 + n_repositories + n_routers
    order = draw(st.permutations(range(n)))
    edges = [(order[i], order[draw(st.integers(0, i - 1))]) for i in range(1, n)]
    node = st.integers(0, n - 1)
    edges += draw(
        st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=2 * n)
    )
    delays = draw(
        st.lists(
            st.sampled_from([0.1, 0.2, 0.3, 0.7, 7.0]),
            min_size=len(edges),
            max_size=len(edges),
        )
    )
    return Topology(
        n_repositories=n_repositories,
        n_routers=n_routers,
        edges=np.array(edges, dtype=np.int64),
        delays_ms=np.array(delays),
    )


@settings(max_examples=150, deadline=None)
@given(topo=tied_graphs())
def test_tie_heavy_graphs_match_per_pair_walk_exactly(topo):
    assert_equal_to_per_pair_walk(topo)


def test_two_leaves_route_each_other():
    topo = Topology(
        n_repositories=1, n_routers=0, edges=np.array([[1, 0]]), delays_ms=np.array([A])
    )
    routing = build_routing(topo)
    assert routing.dist_ms.tolist() == [[0.0, A], [A, 0.0]]
    assert routing.hops.tolist() == [[0, 1], [1, 0]]


@pytest.mark.parametrize("extra", [False, True])
def test_last_endpoint_and_early_stops_leave_no_hole(extra):
    """The last endpoint runs no search and every other root stops
    early, yet its diagonal is 0 and the endpoint block is full."""
    topo = generate_topology(12, 40, np.random.default_rng(9), ParetoDelayModel())
    routers = [topo.n_nodes - 1, topo.n_nodes - 5] if extra else []
    routing = build_routing(topo, extra_endpoints=routers)
    endpoints = [*range(13), *routers]
    block = np.ix_(endpoints, endpoints)
    last = max(endpoints)
    assert routing.dist_ms[last, last] == 0.0
    assert routing.hops[last, last] == 0
    assert np.isfinite(routing.dist_ms[block]).all()
    off_diagonal = ~np.eye(len(endpoints), dtype=bool)
    assert (routing.dist_ms[block][off_diagonal] > 0).all()
    assert (routing.hops[block][off_diagonal] > 0).all()
