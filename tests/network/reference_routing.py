"""Reference routing algorithms that ``build_routing`` is held equal to.

- :func:`floyd_warshall` -- the paper's dense all-pairs recurrence; it
  defines the bits of every routing float.
- :func:`per_pair_routing` -- one Dijkstra per endpoint, then one walk
  per pair back to the root, summed by :func:`elimination_order_sum`.
  ``build_routing`` computed the tables this way before it shared the
  elimination stacks along each shortest-path tree.

None of this runs outside the tests.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable

import numpy as np

from repro.errors import TopologyError
from repro.network.routing import RoutingTables, _cheapest_links
from repro.network.topology import Topology

_INF = np.inf


def floyd_warshall(topology: Topology) -> tuple[np.ndarray, np.ndarray]:
    """Dense all-pairs ``(dist_ms, hops)`` over every physical node.

    The classic O(n^3) recurrence, with the k-loop in Python and the
    (i, j) relaxation vectorised.  Delay ties are broken toward fewer
    hops, so hop counts are well defined.  Both arrays are float;
    unreachable pairs hold ``inf``.
    """
    n = topology.n_nodes
    dist = np.full((n, n), _INF)
    hops = np.full((n, n), _INF)
    np.fill_diagonal(dist, 0.0)
    np.fill_diagonal(hops, 0.0)
    for (u, v), delay in _cheapest_links(topology).items():
        dist[u, v] = dist[v, u] = delay
        hops[u, v] = hops[v, u] = 1.0
    for k in range(n):
        via_dist = dist[:, k, None] + dist[None, k, :]
        via_hops = hops[:, k, None] + hops[None, k, :]
        update = (via_dist < dist) | ((via_dist == dist) & (via_hops < hops))
        dist[update] = via_dist[update]
        hops[update] = via_hops[update]
    return dist, hops


def elimination_order_sum(interior: list[int], delays: list[float]) -> float:
    """Add a path's link delays in the order Floyd-Warshall adds them.

    ``interior`` holds the ids of the path's interior nodes in path
    order and ``delays`` its ``len(interior) + 1`` link delays.
    Floyd-Warshall first sees the path when ``k`` reaches its largest
    interior id, as the sum of the two sub-paths that node splits it
    into, each of which it first saw the same way: interior nodes are
    eliminated in increasing id, each elimination adding the segments on
    either side.  A stack of ``(id, segment to the left)`` kept in
    decreasing id replays that in one pass: a node is eliminated as soon
    as a larger id (or the path's end) closes the segment to its right.
    """
    stack: list[tuple[int, float]] = []
    for node, segment in zip(interior, delays):
        while stack and stack[-1][0] < node:
            segment = stack.pop()[1] + segment
        stack.append((node, segment))
    total = delays[-1]
    while stack:
        total = stack.pop()[1] + total
    return total


def _shortest_path_tree(
    adjacency: list[list[tuple[int, float]]], root: int
) -> tuple[list[int], list[float], list[int]]:
    """Heap Dijkstra from ``root`` keyed on ``(delay, hops)``.

    Returns, per node, its predecessor toward ``root`` (``-1`` for the
    root and for unreached nodes), the delay of the link to that
    predecessor, and its hop count.  Delay ties break toward fewer hops.
    """
    n = len(adjacency)
    best = [(_INF, 0)] * n
    parent = [-1] * n
    parent_delay = [0.0] * n
    done = [False] * n
    best[root] = (0.0, 0)
    heap = [(0.0, 0, root)]
    while heap:
        dist, hop, u = heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, delay in adjacency[u]:
            if done[v]:
                continue
            key = (dist + delay, hop + 1)
            if key < best[v]:
                best[v] = key
                parent[v] = u
                parent_delay[v] = delay
                heappush(heap, key + (v,))
    return parent, parent_delay, [hop for _, hop in best]


def per_pair_routing(
    topology: Topology, extra_endpoints: Iterable[int] = ()
) -> RoutingTables:
    """``build_routing``'s tables, one full tree and one walk per pair."""
    n_logical = 1 + topology.n_repositories
    endpoints = sorted({*range(n_logical), *extra_endpoints})
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(topology.n_nodes)]
    for (u, v), delay in _cheapest_links(topology).items():
        adjacency[u].append((v, delay))
        adjacency[v].append((u, delay))
    size = endpoints[-1] + 1
    dist = np.full((size, size), np.nan)
    hops = np.full((size, size), -1, dtype=np.int64)

    for position, root in enumerate(endpoints):
        parent, parent_delay, tree_hops = _shortest_path_tree(adjacency, root)
        if root == topology.source and parent.count(-1) > 1:
            raise TopologyError("topology is disconnected; routing undefined")
        dist[root, root] = 0.0
        hops[root, root] = 0
        for other in endpoints[position + 1 :]:
            interior: list[int] = []
            delays = [parent_delay[other]]
            node = parent[other]
            while node != root:
                interior.append(node)
                delays.append(parent_delay[node])
                node = parent[node]
            dist[root, other] = dist[other, root] = elimination_order_sum(
                interior, delays
            )
            hops[root, other] = hops[other, root] = tree_hops[other]
    return RoutingTables(dist_ms=dist, hops=hops)
