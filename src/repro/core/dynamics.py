"""Edge-level diffs between dissemination graphs.

Section 4 of the paper: *"If a repository's data needs change or its
data coherency needs change, then to handle the changed requirements,
the algorithm is reapplied."*  A deployment then needs to know which
service edges changed, so that only the affected subscriptions are
re-negotiated between real nodes.  This module is that bookkeeping: the
canonical edge view of a graph (:func:`edges_of`) and the difference
between two of them (:class:`ReconfigurationDiff`).  The reapplication
itself -- which LeLA call a join, a departure, a requirement change or
a drift tick makes -- is the reconfiguration core's
(:class:`~repro.engine.reconfig.ReconfigurationCore`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.tree import DisseminationGraph

__all__ = ["ReconfigurationDiff", "edges_of"]

#: One service edge: (parent, child, item, serve coherency).
_Edge = tuple[int, int, int, float]


@dataclass(frozen=True)
class ReconfigurationDiff:
    """Edge-level difference between two dissemination graphs."""

    added: frozenset
    removed: frozenset

    @property
    def cost(self) -> int:
        """Number of subscriptions that must be (re)negotiated."""
        return len(self.added) + len(self.removed)


def edges_of(graph: DisseminationGraph) -> frozenset:
    """All service edges of ``graph`` as ``(parent, child, item, c)`` tuples.

    The canonical edge representation diffed by
    :class:`ReconfigurationDiff` consumers (membership churn, failure
    failover and adaptive re-optimization all compare graphs this way).
    """
    edges: set[_Edge] = set()
    for node, state in graph.nodes.items():
        for child, items in state.children.items():
            for item_id in items:
                edges.add(
                    (node, child, item_id, graph.nodes[child].receive_c[item_id])
                )
    return frozenset(edges)
