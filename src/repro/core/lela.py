"""LeLA -- the Level-by-Level Algorithm (Section 4).

LeLA inserts repositories one at a time into the dissemination graph.
For a newcomer ``q`` it scans levels starting at the source (level 0);
the *load controller* of each level ranks that level's repositories by a
preference factor and admits every candidate within ``P%`` (default 5%)
of the minimum.  The candidates split ``q``'s item list among themselves
(most preferred first); items none of them can serve are assigned to the
most preferred candidate anyway, which *augments* its own subscriptions --
recursively, up to the source -- to acquire them at the stringency ``q``
needs (the paper's cascading effect).

A repository is a viable candidate only while it has spare *push
connections*: one per child, regardless of how many items flow to that
child.  When a whole level is out of capacity the request passes to the
next level's load controller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TreeConstructionError
from repro.core.interests import InterestProfile
from repro.core.preference import PreferenceFunction, preference_p1
from repro.core.tree import DisseminationGraph

__all__ = ["LelaBuilder", "build_d3g"]


@dataclass
class _Candidate:
    """A capacity-bearing repository considered as a parent."""

    node: int
    preference: float
    serveable: set[int]


class LelaBuilder:
    """Incrementally constructs a :class:`DisseminationGraph` with LeLA.

    Args:
        source: Node id of the data source.
        comm_delay_ms: Callable ``(u, v) -> ms`` giving the communication
            delay between two logical nodes (use
            :meth:`repro.network.model.NetworkModel.delay_ms`).
        offered_degree: ``node -> max push connections``; the degree of
            cooperation each node offers (the source included).
        preference: Preference factor; defaults to the paper's P1.
        p_percent: Admission band -- candidates within this percentage of
            the minimum preference become parents (paper default 5%).
        rng: Random stream used when augmentation must pick among a
            node's existing parents (the paper picks randomly).
        node_load: Optional observed-load weights, ``node -> load >= 0``.
            A candidate's preference is scaled by ``1 + load`` before the
            level ranking, so hot nodes (as measured by a running kernel)
            are demoted and drift-driven re-optimization steers newcomers
            away from them.  Empty/absent loads reproduce plain LeLA
            bit-exactly.
    """

    def __init__(
        self,
        source: int,
        comm_delay_ms,
        offered_degree: dict[int, int],
        preference: PreferenceFunction = preference_p1,
        p_percent: float = 5.0,
        rng: np.random.Generator | None = None,
        node_load: dict[int, float] | None = None,
    ) -> None:
        if p_percent < 0:
            raise TreeConstructionError(f"p_percent must be >= 0, got {p_percent!r}")
        for node, load in (node_load or {}).items():
            if not np.isfinite(load) or load < 0:
                raise TreeConstructionError(
                    f"node_load[{node}] must be finite and >= 0, got {load!r}"
                )
        self.graph = DisseminationGraph(source)
        self._comm_delay_ms = comm_delay_ms
        self._offered_degree = offered_degree
        self._preference = preference
        self._p_percent = p_percent
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._node_load = dict(node_load) if node_load else {}

    # ------------------------------------------------------------------

    def _capacity_left(self, node: int) -> int:
        budget = self._offered_degree.get(node, 0)
        return budget - self.graph.nodes[node].n_dependents

    def _serveable_items(self, parent: int, needs: dict[int, float]) -> set[int]:
        """Items of ``needs`` that ``parent`` can serve without augmentation.

        A parent can serve item ``x`` at tolerance ``c`` iff it receives
        ``x`` at a coherency at least as stringent (Eq. 1).  The source
        can serve everything.
        """
        if parent == self.graph.source:
            return set(needs)
        receive = self.graph.nodes[parent].receive_c
        return {
            x for x, c in needs.items() if x in receive and receive[x] <= c
        }

    def _level_candidates(
        self, level: int, needs: dict[int, float], newcomer: int
    ) -> list[_Candidate]:
        """Rank a level's capacity-bearing nodes; apply the P% band."""
        scored: list[_Candidate] = []
        for node in self.graph.levels[level]:
            if self._capacity_left(node) < 1:
                continue
            serveable = self._serveable_items(node, needs)
            pref = self._preference(
                self._comm_delay_ms(node, newcomer),
                self.graph.nodes[node].n_dependents,
                len(serveable),
            )
            load = self._node_load.get(node)
            if load:
                # Lower preference wins: scaling by observed load demotes
                # hot nodes without ever disqualifying them outright.
                pref *= 1.0 + load
            scored.append(_Candidate(node=node, preference=pref, serveable=serveable))
        if not scored:
            return []
        scored.sort(key=lambda cand: (cand.preference, cand.node))
        cutoff = scored[0].preference * (1.0 + self._p_percent / 100.0)
        return [cand for cand in scored if cand.preference <= cutoff]

    def _augment(self, node: int, item_id: int, c: float) -> None:
        """Ensure ``node`` receives ``item_id`` at coherency <= ``c``.

        Recursively requests service from existing parents up to the
        source (the paper's cascading augmentation).  Never consumes new
        push connections: service rides existing parent-child edges.
        """
        if node == self.graph.source:
            return
        state = self.graph.nodes[node]
        current = state.receive_c.get(item_id)
        if current is not None:
            if current <= c:
                return
            # Tighten this node's subscription and cascade upward.
            provider = state.parent_for[item_id]
            self._augment(provider, item_id, c)
            self.graph.tighten(node, item_id, c)
            return
        # Node does not receive the item yet: pick a provider among its
        # existing parents -- preferring one that already carries the item,
        # else a random parent (paper's rule) -- and recurse.
        parents = sorted(set(state.parent_for.values()))
        if not parents:
            raise TreeConstructionError(
                f"node {node} has no parents to augment item {item_id} through"
            )
        carrying = [p for p in parents if self._carries(p, item_id)]
        if carrying:
            provider = min(
                carrying,
                key=lambda p: self.graph.receive_c(p, item_id),
            )
        else:
            provider = parents[int(self._rng.integers(0, len(parents)))]
        self._augment(provider, item_id, c)
        self.graph.connect(provider, node, item_id, c)

    def _carries(self, node: int, item_id: int) -> bool:
        if node == self.graph.source:
            return True
        return item_id in self.graph.nodes[node].receive_c

    # ------------------------------------------------------------------

    def insert(self, profile: InterestProfile) -> int:
        """Insert one repository; return the level it was placed at.

        Raises:
            TreeConstructionError: if the repository wants no items or no
                level has spare capacity (possible only with zero offered
                degrees).
        """
        newcomer = profile.repository
        needs = dict(profile.requirements)
        if not needs:
            raise TreeConstructionError(
                f"repository {newcomer} has no data needs; nothing to place"
            )

        level = 0
        while level < len(self.graph.levels):
            candidates = self._level_candidates(level, needs, newcomer)
            if candidates:
                self._attach(newcomer, profile, candidates, level + 1)
                return level + 1
            level += 1
        raise TreeConstructionError(
            f"no level can host repository {newcomer}: "
            "every node is out of cooperative resources"
        )

    def _attach(
        self,
        newcomer: int,
        profile: InterestProfile,
        candidates: list[_Candidate],
        level: int,
    ) -> None:
        """Wire the newcomer below the admitted candidates."""
        needs = dict(profile.requirements)
        self.graph.add_node(newcomer, level, own_c=profile.requirements)

        assignment: dict[int, list[int]] = {}
        unassigned: list[int] = []
        for item_id in sorted(needs):
            server = next(
                (cand for cand in candidates if item_id in cand.serveable), None
            )
            if server is None:
                unassigned.append(item_id)
            else:
                assignment.setdefault(server.node, []).append(item_id)

        if unassigned:
            # The most preferred candidate takes them on, augmenting its
            # own subscriptions up the graph as needed.
            best = candidates[0]
            assignment.setdefault(best.node, []).extend(unassigned)
            for item_id in unassigned:
                self._augment(best.node, item_id, needs[item_id])

        for parent, item_ids in assignment.items():
            for item_id in item_ids:
                self.graph.connect(parent, newcomer, item_id, needs[item_id])

    def insert_all(self, profiles: list[InterestProfile]) -> DisseminationGraph:
        """Insert repositories in the given order and return the graph."""
        for profile in profiles:
            self.insert(profile)
        return self.graph


def build_d3g(
    profiles: list[InterestProfile],
    source: int,
    comm_delay_ms,
    offered_degree: dict[int, int] | int,
    preference: PreferenceFunction = preference_p1,
    p_percent: float = 5.0,
    rng: np.random.Generator | None = None,
    node_load: dict[int, float] | None = None,
) -> DisseminationGraph:
    """Convenience wrapper: build the full ``d3g`` in one call.

    Args:
        profiles: Interest profiles in insertion order.
        source: Source node id.
        comm_delay_ms: ``(u, v) -> ms`` communication-delay oracle.
        offered_degree: Either a single degree applied to every node
            (source included) or an explicit per-node mapping.
        preference: Preference factor (default: paper's P1).
        p_percent: Load-controller admission band (default 5%).
        rng: Random stream for augmentation's random-parent rule.
        node_load: Observed-load weights demoting hot candidates (see
            :class:`LelaBuilder`).  ``None``/empty is plain LeLA: over the
            same insertion order and random stream it reproduces the
            original graph bit-exactly, which is why online adaptation
            (:mod:`repro.engine.adaptive`) can rebuild under load and
            apply only the edge-level
            :class:`~repro.core.dynamics.ReconfigurationDiff` between the
            old and new graphs to the running system.

    Returns:
        The constructed, validated :class:`DisseminationGraph`.
    """
    if isinstance(offered_degree, int):
        budgets = {source: offered_degree}
        budgets.update({p.repository: offered_degree for p in profiles})
    else:
        budgets = dict(offered_degree)
    builder = LelaBuilder(
        source=source,
        comm_delay_ms=comm_delay_ms,
        offered_degree=budgets,
        preference=preference,
        p_percent=p_percent,
        rng=rng,
        node_load=node_load,
    )
    graph = builder.insert_all(profiles)
    graph.validate(max_dependents=budgets)
    return graph

