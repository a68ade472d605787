"""Repository membership dynamics.

Section 4 of the paper: *"If a repository's data needs change or its
data coherency needs change, then to handle the changed requirements,
the algorithm is reapplied."*  This module implements that reapplication
as a managed wrapper around LeLA, plus the bookkeeping a deployment
needs: which service edges changed, so only the affected subscriptions
must be re-negotiated between real nodes.

Joins are incremental (LeLA is already an online algorithm); coherency
changes and departures rebuild the graph in the original join order,
exactly as the paper prescribes, and report the edge-level diff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.interests import InterestProfile
from repro.core.lela import LelaBuilder
from repro.core.preference import PreferenceFunction, preference_p1
from repro.core.tree import DisseminationGraph
from repro.errors import TreeConstructionError

__all__ = ["ReconfigurationDiff", "DynamicMembership", "edges_of"]

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

    @property
    def unchanged_is_cheap(self) -> bool:
        """True when nothing changed at all."""
        return not self.added and not self.removed


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


class DynamicMembership:
    """A living repository network: join, leave, change requirements.

    Args:
        source: Source node id.
        comm_delay_ms: ``(u, v) -> ms`` oracle (as for LeLA).
        offered_degree: Degree of cooperation, for every node (including
            joins that arrive later).
        preference: LeLA preference factor.
        p_percent: Load-controller admission band.
        seed: Seed for LeLA's random-parent augmentation rule; rebuilds
            reuse it so unchanged memberships rebuild identically.
    """

    def __init__(
        self,
        source: int,
        comm_delay_ms,
        offered_degree: int,
        preference: PreferenceFunction = preference_p1,
        p_percent: float = 5.0,
        seed: int = 0,
    ) -> None:
        self._source = source
        self._comm_delay_ms = comm_delay_ms
        self._offered_degree = offered_degree
        self._preference = preference
        self._p_percent = p_percent
        self._seed = seed
        self._profiles: dict[int, InterestProfile] = {}
        self._join_order: list[int] = []
        self.graph = self._fresh_builder().graph

    # ------------------------------------------------------------------

    def _fresh_builder(self) -> LelaBuilder:
        return LelaBuilder(
            source=self._source,
            comm_delay_ms=self._comm_delay_ms,
            offered_degree={},  # filled per insert via _budgets
            preference=self._preference,
            p_percent=self._p_percent,
            rng=np.random.default_rng(self._seed),
        )

    def _budgets(self) -> dict[int, int]:
        budgets = {self._source: self._offered_degree}
        budgets.update({r: self._offered_degree for r in self._profiles})
        return budgets

    def _rebuild(self) -> DisseminationGraph:
        builder = LelaBuilder(
            source=self._source,
            comm_delay_ms=self._comm_delay_ms,
            offered_degree=self._budgets(),
            preference=self._preference,
            p_percent=self._p_percent,
            rng=np.random.default_rng(self._seed),
        )
        for repo in self._join_order:
            builder.insert(self._profiles[repo])
        graph = builder.graph
        graph.validate(max_dependents=self._budgets())
        return graph

    # ------------------------------------------------------------------

    @property
    def members(self) -> list[int]:
        """Current repositories in join order."""
        return list(self._join_order)

    def validate(self) -> None:
        """Check every graph invariant against the current budgets.

        Raises:
            TreeConstructionError: on the first violated invariant.
        """
        self.graph.validate(max_dependents=self._budgets())

    def join(self, profile: InterestProfile, validate: bool = True) -> ReconfigurationDiff:
        """Add a repository incrementally (LeLA insertion).

        Args:
            profile: The newcomer's interests.
            validate: Check all graph invariants after the insertion.
                Bulk replays (rebuilding a known-good membership) may
                pass ``False`` and call :meth:`validate` once at the
                end; validation is a check only, never a mutation, so
                skipping it cannot change the constructed graph.
        """
        if profile.repository in self._profiles:
            raise TreeConstructionError(
                f"repository {profile.repository} already joined"
            )
        before = edges_of(self.graph)
        self._profiles[profile.repository] = profile
        self._join_order.append(profile.repository)
        # Incremental: insert into the live graph with updated budgets.
        builder = LelaBuilder(
            source=self._source,
            comm_delay_ms=self._comm_delay_ms,
            offered_degree=self._budgets(),
            preference=self._preference,
            p_percent=self._p_percent,
            rng=np.random.default_rng(self._seed + len(self._join_order)),
        )
        builder.graph = self.graph
        builder.insert(profile)
        if validate:
            self.validate()
        after = edges_of(self.graph)
        return ReconfigurationDiff(added=after - before, removed=before - after)

    def leave(self, repo: int) -> ReconfigurationDiff:
        """Remove a repository; the algorithm is reapplied (rebuild)."""
        if repo not in self._profiles:
            raise TreeConstructionError(f"repository {repo} is not a member")
        before = edges_of(self.graph)
        del self._profiles[repo]
        self._join_order.remove(repo)
        self.graph = self._rebuild()
        after = edges_of(self.graph)
        return ReconfigurationDiff(added=after - before, removed=before - after)

    def update_requirements(self, profile: InterestProfile) -> ReconfigurationDiff:
        """Change a member's data or coherency needs (reapply LeLA)."""
        if profile.repository not in self._profiles:
            raise TreeConstructionError(
                f"repository {profile.repository} is not a member"
            )
        before = edges_of(self.graph)
        self._profiles[profile.repository] = profile
        self.graph = self._rebuild()
        after = edges_of(self.graph)
        return ReconfigurationDiff(added=after - before, removed=before - after)
