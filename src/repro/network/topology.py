"""Random physical-network topology generation.

The paper's model (Section 6.1): a randomly generated physical network of
nodes (routers and repositories) and links, with one node selected as the
source.  The base case uses 700 nodes (1 source, 100 repositories, 600
routers); the scalability study grows this to 2100 nodes.

We generate a connected random graph in two steps:

1. a uniform random spanning tree over all nodes (guaranteeing
   connectivity), then
2. extra random links until the target average degree is reached.

Repositories and the source attach to the router mesh like end hosts: the
construction below places routers first and biases extra links toward
router-router pairs, yielding source-to-repository paths of roughly 10
hops at the 700-node scale, matching the paper's reported average.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import TopologyError

__all__ = ["Topology", "generate_topology"]


@dataclass
class Topology:
    """An undirected physical network.

    Node ids are dense integers ``0 .. n_nodes-1``.  Node 0 is always the
    source; repositories follow (ids ``1 .. n_repositories``); routers take
    the remaining ids.

    Attributes:
        n_repositories: Number of repository nodes.
        n_routers: Number of router nodes.
        edges: Array of shape (n_edges, 2) of undirected links.
        delays_ms: Per-edge link delay in milliseconds, aligned to ``edges``.
    """

    n_repositories: int
    n_routers: int
    edges: np.ndarray
    delays_ms: np.ndarray
    source: int = 0
    repository_ids: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.repository_ids = np.arange(1, 1 + self.n_repositories)
        if self.edges.shape[0] != self.delays_ms.shape[0]:
            raise TopologyError("edges and delays_ms must have the same length")

    @property
    def n_nodes(self) -> int:
        """Total node count (source + repositories + routers)."""
        return 1 + self.n_repositories + self.n_routers

    @property
    def n_edges(self) -> int:
        """Number of undirected links."""
        return int(self.edges.shape[0])

    def degree_of(self, node: int) -> int:
        """Number of links incident to ``node``."""
        return int(np.count_nonzero(self.edges == node))

    def is_connected(self) -> bool:
        """Breadth-first connectivity check over the link set."""
        n = self.n_nodes
        if n == 0:
            return True
        adjacency: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            adjacency[int(u)].append(int(v))
            adjacency[int(v)].append(int(u))
        seen = np.zeros(n, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            u = stack.pop()
            for v in adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        return bool(seen.all())


def _random_spanning_tree(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Random spanning tree via a random-permutation attachment process.

    Each node (in random order, after the first) links to a uniformly
    chosen already-attached node.  This yields a connected tree with
    randomised shape; it is not uniform over all spanning trees, but the
    experiments only need "a random connected mesh", as in the paper.
    """
    order = rng.permutation(n)
    edges = []
    for i in range(1, n):
        attach_to = order[rng.integers(0, i)]
        edges.append((int(order[i]), int(attach_to)))
    return edges


def generate_topology(
    n_repositories: int,
    n_routers: int,
    rng: np.random.Generator,
    delay_model,
    avg_degree: float = 3.0,
) -> Topology:
    """Generate a connected random topology in the paper's style.

    Args:
        n_repositories: Repository count (paper base case: 100).
        n_routers: Router count (paper base case: 600).
        rng: Random stream for the structure.
        delay_model: Object with ``sample(rng, size) -> ndarray`` giving
            per-link delays in milliseconds (see :mod:`repro.network.delays`).
        avg_degree: Target average node degree; extra links beyond the
            spanning tree are added until this is met.

    Returns:
        A connected :class:`Topology`.

    Raises:
        TopologyError: on non-positive node counts or an infeasible degree.
    """
    if n_repositories < 1:
        raise TopologyError(f"need at least one repository, got {n_repositories!r}")
    if n_routers < 0:
        raise TopologyError(f"router count must be non-negative, got {n_routers!r}")
    n = 1 + n_repositories + n_routers
    if avg_degree < 2.0 * (n - 1) / n:
        raise TopologyError(
            f"avg_degree {avg_degree!r} is below the spanning-tree minimum"
        )

    edge_set: set[tuple[int, int]] = set()
    for u, v in _random_spanning_tree(n, rng):
        edge_set.add((min(u, v), max(u, v)))

    target_edges = int(round(avg_degree * n / 2.0))
    max_possible = n * (n - 1) // 2
    target_edges = min(target_edges, max_possible)

    # Bias extra links toward the router mesh (end hosts keep low degree),
    # falling back to arbitrary pairs if the router mesh saturates.
    router_lo = 1 + n_repositories
    attempts = 0
    max_attempts = 50 * max(target_edges, 1)
    while len(edge_set) < target_edges and attempts < max_attempts:
        attempts += 1
        if n_routers >= 2 and rng.random() < 0.9:
            u = int(rng.integers(router_lo, n))
            v = int(rng.integers(router_lo, n))
        else:
            u = int(rng.integers(0, n))
            v = int(rng.integers(0, n))
        if u == v:
            continue
        edge_set.add((min(u, v), max(u, v)))

    edges = np.array(sorted(edge_set), dtype=np.int64)
    delays = delay_model.sample(rng, edges.shape[0]).astype(float)
    topo = Topology(
        n_repositories=n_repositories,
        n_routers=n_routers,
        edges=edges,
        delays_ms=delays,
    )
    if not topo.is_connected():
        raise TopologyError("generated topology is not connected (internal error)")
    return topo
