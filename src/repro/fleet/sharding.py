"""Deterministic shard assignment of the live network across workers.

Every fleet process rebuilds the full network from the frozen
:class:`~repro.engine.config.SimulationConfig` (the builder is
bit-reproducible), so the shard plan only has to say *which* nodes each
worker activates -- no node state ever crosses a process boundary.
The plan itself is a pure function of the setup, computed identically
by every worker (the supervisor needs none).

Assignment walks the union dissemination graph breadth-first from the
source and cuts the visit order into near-equal contiguous blocks, one
per worker.  BFS order keeps subtrees together, so most service edges
stay worker-local and the cross-process link traffic is roughly the
cut between consecutive d3g levels rather than a random half of all
edges.  The source always lands on worker 0 (it heads the visit
order).  A repository's modeled clients are served from its delivery
logs, so they live wherever it does.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.engine.builder import SimulationSetup
from repro.errors import ConfigurationError

__all__ = ["ShardPlan", "check_worker_count", "plan_shards"]


@dataclass(frozen=True)
class ShardPlan:
    """Which worker hosts which node.

    Attributes:
        n_workers: Fleet size.
        owner: ``node_id -> worker`` for the source and every
            repository.
        source: The source's node id (always owned by worker 0).
    """

    n_workers: int
    owner: dict[int, int] = field(default_factory=dict)
    source: int = 0

    def worker_of(self, node_id: int) -> int:
        """The worker hosting ``node_id``."""
        return self.owner[node_id]

    def nodes_of(self, worker: int) -> list[int]:
        """Every node ``worker`` hosts, sorted."""
        return sorted(n for n, w in self.owner.items() if w == worker)


def check_worker_count(n_workers: int, n_nodes: int) -> None:
    """Refuse a fleet no plan can fill: every worker hosts a node.

    ``n_nodes`` is the source plus every repository, which a config
    states without a build (``n_repositories + 1``) -- the supervisor
    checks it that way before it starts a process.

    Raises:
        ConfigurationError: on a non-positive worker count or more
            workers than nodes.
    """
    if n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers!r}")
    if n_workers > n_nodes:
        raise ConfigurationError(
            f"{n_workers} workers for {n_nodes} nodes; every "
            "worker must host at least one node"
        )


def plan_shards(setup: SimulationSetup, n_workers: int) -> ShardPlan:
    """Compute the fleet's shard assignment for one built setup.

    Args:
        setup: The run's built setup (graph + traces).
        n_workers: Number of worker processes; capped by the node count
            (a worker with nothing to host is a configuration error).

    Raises:
        ConfigurationError: on a non-positive worker count or more
            workers than repositories + source.
    """
    graph = setup.graph
    check_worker_count(n_workers, len(graph.nodes))

    # Union child adjacency over all items, children in first-seen order.
    children: dict[int, list[int]] = {}
    for item_id in setup.traces:
        for node in graph.nodes:
            for child, _c in graph.children_for_item(node, item_id):
                siblings = children.setdefault(node, [])
                if child not in siblings:
                    siblings.append(child)

    source = graph.source
    order: list[int] = []
    seen = {source}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        order.append(node)
        for child in children.get(node, ()):
            if child not in seen:
                seen.add(child)
                queue.append(child)
    # Nodes unreachable from the source (none in a healthy d3g, but the
    # plan must be total) trail the visit order deterministically.
    for node in graph.nodes:
        if node not in seen:
            order.append(node)

    owner: dict[int, int] = {}
    n_nodes = len(order)
    base, extra = divmod(n_nodes, n_workers)
    start = 0
    for worker in range(n_workers):
        size = base + (1 if worker < extra else 0)
        for node in order[start : start + size]:
            owner[node] = worker
        start += size
    return ShardPlan(n_workers=n_workers, owner=owner, source=source)
