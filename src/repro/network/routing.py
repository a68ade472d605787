"""Shortest-path routing between the logical nodes.

The paper routes with Floyd-Warshall (Section 6.1, citing Cormen et
al.).  The engine only asks for delays and hop counts between the source
and the repositories, so :func:`build_routing` runs one heap Dijkstra
from each of those logical nodes over the physical graph instead of the
dense O(n^3) recurrence over all n physical nodes.

The tables are **bit-identical** to the logical block of what
Floyd-Warshall computes.  Its float for a pair is not the left-to-right
sum of the path's link delays: interior nodes are eliminated in
increasing id, each elimination adding the two path segments beside the
node.  Walked from the root, a stack of ``(id, segment to the left)``
kept in decreasing id replays that order, and the stack after a path
prefix depends on that prefix alone: in a shortest-path tree a node's
stack is its parent's plus one step, and a pair's float is the far end's
parent's stack folded onto the last link.  Walking from the other end
gives the same float (each elimination adds the same two segments the
other way round), so each unordered pair is computed once, from the
smaller id's tree, and mirrored.  The dense reference that defines the
bits lives with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from repro.errors import TopologyError
from repro.network.topology import Topology

__all__ = ["RoutingTables", "build_routing"]

_INF = np.inf


@dataclass
class RoutingTables:
    """Routing state between the logical nodes (source + repositories).

    Both tables are indexed by physical node id and span the logical
    nodes only, ids ``0 .. n_repositories``.

    Attributes:
        dist_ms: (s, s) minimal path delay in milliseconds.
        hops: (s, s) hop counts along the minimal-delay paths.
    """

    dist_ms: np.ndarray
    hops: np.ndarray


def _cheapest_links(topology: Topology) -> dict[tuple[int, int], float]:
    """Delay per linked node pair ``(u, v)``, ``u < v``."""
    cheapest: dict[tuple[int, int], float] = {}
    for (u, v), delay in zip(topology.edges.tolist(), topology.delays_ms.tolist()):
        key = (u, v) if u < v else (v, u)
        # Keep the cheaper link if the generator produced a multi-edge.
        if delay < cheapest.get(key, _INF):
            cheapest[key] = delay
    return cheapest


def _owed_tree(
    adjacency: list[list[tuple[int, float]]],
    leaves: list[list[tuple[int, float]]],
    root: int,
    owed: set[int],
    exhaust: bool,
) -> tuple[list[int], list[float], list[int]]:
    """Heap Dijkstra from ``root`` keyed on ``(delay, hops, node)``.

    Delay ties break toward fewer hops.  A degree-1 neighbour (listed in
    ``leaves``, not ``adjacency``) is settled with its only neighbour,
    without the heap: its parent is forced and it relaxes nothing.  The
    search stops once every node in ``owed`` is settled, unless
    ``exhaust``.  Returns, per node, its parent toward ``root`` (``-1``
    if never reached), the link delay to it and its hop count, final for
    settled nodes only.
    """
    n = len(adjacency)
    best = [_INF] * n
    best_hops = [0] * n
    parent = [-1] * n
    parent_delay = [0.0] * n
    done = [False] * n
    remaining = len(owed)
    heap = [(0.0, 0, root)]
    while heap:
        dist, hop, u = heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if u in owed:
            remaining -= 1
        hop += 1
        for v, delay in leaves[u]:
            if not done[v]:
                done[v] = True
                best_hops[v] = hop
                parent[v] = u
                parent_delay[v] = delay
                if v in owed:
                    remaining -= 1
        if not remaining and not exhaust:
            break
        for v, delay in adjacency[u]:
            if done[v]:
                continue
            via = dist + delay
            if via < best[v] or (via == best[v] and hop < best_hops[v]):
                best[v] = via
                best_hops[v] = hop
                parent[v] = u
                parent_delay[v] = delay
                heappush(heap, (via, hop, v))
    return parent, parent_delay, best_hops


def _elimination_sums(
    parent: list[int], parent_delay: list[float], root: int, ends: list[int]
) -> list[float]:
    """Each end's path delay from ``root``, in Floyd-Warshall's order.

    ``stacks`` maps a node to the elimination stack after its path from
    ``root``, a persistent ``(id, segment, below)`` tuple (``None`` when
    empty) built from its parent's in one step, only for ancestors of
    ``ends``.
    """
    stacks: dict[int, tuple | None] = {root: None}
    sums = []
    for end in ends:
        chain = []
        node = parent[end]
        while node not in stacks:
            chain.append(node)
            node = parent[node]
        below = stacks[node]
        for node in reversed(chain):
            segment = parent_delay[node]
            while below is not None and below[0] < node:
                segment = below[1] + segment
                below = below[2]
            below = stacks[node] = (node, segment, below)
        total = parent_delay[end]
        while below is not None:
            total = below[1] + total
            below = below[2]
        sums.append(total)
    return sums


def build_routing(topology: Topology) -> RoutingTables:
    """Compute the routing tables between a topology's logical nodes.

    Args:
        topology: The physical graph.

    Raises:
        TopologyError: if the topology is disconnected.
    """
    n_logical = 1 + topology.n_repositories
    links: list[list[tuple[int, float]]] = [[] for _ in range(topology.n_nodes)]
    for (u, v), delay in _cheapest_links(topology).items():
        links[u].append((v, delay))
        links[v].append((u, delay))
    adjacency = [[(v, d) for v, d in near if len(links[v]) > 1] for near in links]
    leaves = [[(v, d) for v, d in near if len(links[v]) == 1] for near in links]
    # Every entry is written below; the fill only makes a missed one show.
    dist = np.full((n_logical, n_logical), np.nan)
    hops = np.full((n_logical, n_logical), -1, dtype=np.int64)
    np.fill_diagonal(dist, 0.0)
    np.fill_diagonal(hops, 0)

    # A root owes only the logical nodes after it.  The source's search
    # runs to completion: connectivity is a property of the whole physical
    # graph, so a router-only island is refused though no query crosses it.
    for root in range(n_logical):
        owed = list(range(root + 1, n_logical))
        exhaust = root == topology.source
        if not owed and not exhaust:
            continue
        parent, parent_delay, tree_hops = _owed_tree(
            adjacency, leaves, root, set(owed), exhaust
        )
        if exhaust and parent.count(-1) > 1:
            raise TopologyError("topology is disconnected; routing undefined")
        dist[root, owed] = _elimination_sums(parent, parent_delay, root, owed)
        hops[root, owed] = [tree_hops[node] for node in owed]
    small, large = np.triu_indices(n_logical, 1)
    dist[large, small] = dist[small, large]
    hops[large, small] = hops[small, large]
    return RoutingTables(dist_ms=dist, hops=hops)
