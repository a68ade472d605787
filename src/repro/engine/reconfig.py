"""The reconfiguration core: every mid-run change of the ``d3g``, stated once.

The paper's dissemination graph is not static.  Repositories join,
leave and change their coherency needs (planned **churn**, Section 4's
"the algorithm is reapplied"), crash and recover (unplanned
**failures**), and the graph itself is re-optimized when observed load
drifts (**adaptive** rewiring).  Every such change must keep the
Eq. (1) parent-at-least-as-stringent invariant and leave each dependent
with a defined last-sent value, and every one of them ends the same
way: an ordered piece of edge surgery on a running network.

:class:`ReconfigurationCore` owns that surgery.  It is sans-io: it holds
all *control* state -- who serves whom (``parent_of``) and where each
dependent's home is (``home_parent``), who is a member, ``crashed`` or
``departed``, which links are down, the ``[start, end, c]``
fidelity-scoring ``segments``, the one current ``graph`` -- and all the
*rules*.  The three sources compose because they share them:

- a churn event (:class:`~repro.core.dynamics.DynamicMembership`) and
  an adaptive rewire (:class:`~repro.engine.adaptive.AdaptiveController`)
  each *propose* the next graph -- a join inserts into the current
  graph, a departure or a requirement change re-runs LeLA over the
  current members, a rewire re-optimizes them under load -- and one
  rule wires it (:meth:`~ReconfigurationCore._retarget`):
  the proposed graph's edges, every crashed parent replaced by its
  nearest non-crashed ancestor, diffed against what is *wired*;
- a crash fails the orphaned dependents over to the nearest live
  ancestor; a recovery resyncs only the copies that diverged (one
  compare round, then transfer -- the ``setdiscovery`` shape) and then
  re-homes the dependents;
- a pair is owed fidelity while its repository is a member, is not
  crashed and requires the item, at its current tolerance: one
  predicate opens and closes every scoring segment, and :meth:`score`
  walks them;
- and the single :meth:`~ReconfigurationCore.apply_diff` turns any of
  those diffs into edge operations: removals in sorted-tuple order,
  additions root-downward per item tree, a new subscription (or a
  rejoiner) initial-syncing its parent's copy while a re-homed child
  keeps its own, the receive coherency dropped when the diff leaves the
  pair without a parent, the cost charged to
  :class:`~repro.core.metrics.CostCounters`.

It touches the plane it runs on only through the :class:`EdgeStore`
port.  The reference oracle (dict tables + policy object), the engine
(edge-group lists) and the live network (sans-io nodes, under either
transport) each implement that port in a few dozen lines of pure table
surgery -- no ordering, no initial-value choice, no cost charging --
which is what makes the three planes bit-identical by construction
rather than by golden suite.

:meth:`~ReconfigurationCore.timeline` hands every plane the run's one
time-ordered list of control instants; a plane applies each entry
*before* any update or delivery at the same instant.
"""

from __future__ import annotations

import weakref
from typing import Protocol

from repro.core.dynamics import ReconfigurationDiff
from repro.core.fidelity import (
    FidelityAccumulator,
    scoring_windows,
    segmented_loss,
    unzip_log,
)
from repro.core.interests import InterestProfile
from repro.core.metrics import CostCounters
from repro.engine.builder import make_adaptive_controller, make_membership
from repro.engine.churn import ChurnEvent
from repro.engine.failures import FailureEvent
from repro.errors import SimulationError

__all__ = ["EdgeStore", "ReconfigurationCore"]


class EdgeStore(Protocol):
    """What the core needs from the plane it reconfigures.

    Implementations do table surgery only; every decision (order,
    initial value, what to charge) has been made by the caller.
    """

    def unwire(self, parent: int, child: int, item_id: int, c: float) -> None:
        """Tear down the service edge ``parent -> child`` for one item."""

    def wire(
        self, parent: int, child: int, item_id: int, c: float, initial: float
    ) -> None:
        """Install the edge: ``child`` now receives the item at coherency
        ``c`` from ``parent``, its filter primed with ``initial``."""

    def unsubscribe(self, node: int, item_id: int) -> None:
        """``node`` no longer receives the item at all (its delivery log
        is kept: the elapsed interval is still scored)."""

    def log(self, node: int, item_id: int, create: bool = False) -> list | None:
        """The pair's mutable ``[(time, value), ...]`` delivery log, or
        ``None``; ``create`` starts an empty one instead."""

    def source_value(self, item_id: int) -> float:
        """The freshest value the item's source has seen."""

    def message_counts(self) -> dict[int, int]:
        """Cumulative per-node sent-message counts (the drift signal)."""


class ReconfigurationCore:
    """Control state and rules for one run on one plane.

    Args:
        store: The plane's :class:`EdgeStore` (held weakly: the store
            must outlive the core's use of it, which it does when it is
            the object that owns the core).
        counters: Where reconfiguration and resync cost is charged.
        trees: ``(graph, root, item ids)`` per source, as wired (kept
            as :attr:`trees`; the first graph starts as :attr:`graph`).
        profiles: ``repository -> InterestProfile`` (scoring segments,
            and the profile a requirement-less join comes back with).
        churn: The run's :class:`~repro.engine.churn.ChurnSchedule`.
        membership: This run's own
            :class:`~repro.core.dynamics.DynamicMembership` (with churn).
        failures: The run's
            :class:`~repro.engine.failures.FailureSchedule`.
        adaptive: This run's own
            :class:`~repro.engine.adaptive.AdaptiveController`.

    Attributes:
        graph: The current single-source graph: what every rebuild
            starts from, rebound by each one that is wired.
        members: ``repository -> InterestProfile``, the current members
            in join order with their current requirements.
        parent_of: ``(child, item) -> (parent, serve coherency)`` for
            every wired edge, kept current by :meth:`apply_diff`.
        home_parent: ``(child, item) -> parent`` in :attr:`graph`;
            failover moves dependents away, recovery brings them back.
        crashed / departed / down_links: Who and what is unavailable
            right now.  Planes read these sets on their hot paths (a
            message toward a crashed or departed node, or over a down
            link, is a drop); they are mutated in place, never rebound.
        segments: ``(repository, item) -> [[start, end-or-None, c]]``,
            the intervals over which fidelity is owed.
        applied: Control-timeline entries executed so far.
        observer: Optional out-of-band trace observer; only its
            ``metrics`` registry is used, for adaptive telemetry.
    """

    def __init__(
        self,
        store: EdgeStore,
        counters: CostCounters,
        trees,
        profiles: dict[int, InterestProfile],
        *,
        churn=None,
        membership=None,
        failures=None,
        adaptive=None,
    ) -> None:
        # The plane owns its core, never the reverse: a proxy keeps the
        # pair acyclic, so a finished run (arrays, logs and all) is freed
        # by refcount the moment it goes out of scope instead of waiting
        # for a cycle-collector pass -- a sweep's peak RSS depends on it.
        self.store = weakref.proxy(store)
        self.counters = counters
        self.profiles = profiles
        self.churn = churn
        self.membership = membership
        self.failures = failures
        self.adaptive = adaptive
        self.observer = None
        self.crashed: set[int] = set()
        self.departed: set[int] = set()
        self.down_links: set[tuple[int, int]] = set()
        self.applied = 0
        self.trees = trees
        self.graph = trees[0][0]
        self._root_of: dict[int, int] = {}
        self.parent_of: dict[tuple[int, int], tuple[int, float]] = {}
        for graph, root, item_ids in trees:
            item_ids = set(item_ids)
            for item_id in item_ids:
                self._root_of[item_id] = root
            for node, state in graph.nodes.items():
                for item_id, parent in state.parent_for.items():
                    if item_id in item_ids:
                        self.parent_of[(node, item_id)] = (parent, state.receive_c[item_id])
        self.home_parent = {key: edge[0] for key, edge in self.parent_of.items()}
        joined = sorted(profiles) if membership is None else membership.members
        self.members = {repo: profiles[repo] for repo in joined}
        self.segments: dict[tuple[int, int], list[list]] = {}
        for repo, profile in profiles.items():
            if repo not in self.members:
                continue  # late joiner: scoring starts at its join event
            for item_id, c_own in profile.requirements.items():
                self.segments[(repo, item_id)] = [[0.0, None, c_own]]

    @classmethod
    def for_setup(cls, setup, store, counters, trees=None) -> "ReconfigurationCore":
        """The core for one run of ``setup.config`` on ``store``.

        The membership and the adaptive controller are built fresh per
        run (both rebuild graphs mid-run; a shared setup must stay
        read-only), and deterministically, so every plane starts from a
        graph bit-identical to ``setup.graph``.
        """
        config = setup.config
        membership = make_membership(setup) if config.churn is not None else None
        if trees is None:
            graph = setup.graph if membership is None else membership.graph
            trees = [(graph, setup.source, list(setup.traces))]
        return cls(
            store,
            counters,
            trees,
            setup.profiles,
            churn=config.churn,
            membership=membership,
            failures=config.failures,
            adaptive=make_adaptive_controller(setup) if config.adaptive is not None else None,
        )

    # ------------------------------------------------------------------
    # The control timeline
    # ------------------------------------------------------------------

    def timeline(self, span: float) -> list[tuple[float, object]]:
        """Every control instant of the run, time-ordered.

        Entries are ``(time, event)`` with a
        :class:`~repro.engine.churn.ChurnEvent`, a
        :class:`~repro.engine.failures.FailureEvent`, or ``None`` for an
        adaptive drift tick over ``span`` seconds.  The contract every
        plane keeps: an entry at instant ``t`` is applied (via
        :meth:`apply`) before any source update or delivery at ``t`` --
        a crash at ``t`` drops the delivery at ``t``, a tick at ``t``
        snapshots the counters before the update at ``t`` moves them.
        At one instant, churn comes before failures and both before a
        tick.
        """
        entries: list[tuple[float, object]] = []
        for schedule in (self.churn, self.failures):
            if schedule is not None:
                entries.extend((float(e.time), e) for e in schedule.events)
        if self.adaptive is not None:
            entries.extend((t, None) for t in self.adaptive.tick_times(span))
        entries.sort(key=lambda entry: entry[0])
        return entries

    def apply(self, now: float, event) -> None:
        """Execute one :meth:`timeline` entry at its instant."""
        self.applied += 1
        if event is None:
            self._on_tick(now)
        elif isinstance(event, ChurnEvent):
            self._on_churn(event, now)
        else:
            self._apply_failure(event, now)

    # ------------------------------------------------------------------
    # The one rewiring rule and the one diff application
    # ------------------------------------------------------------------

    def _retarget(self, graph, now: float, resync: frozenset = frozenset()) -> None:
        """Make ``graph`` current and wire it.

        The target is every edge of ``graph``, except that a crashed
        parent is replaced by its nearest non-crashed ancestor in
        ``graph`` (the source never crashes, so the walk always ends);
        the diff is taken against what is wired, so whatever moved an
        edge before -- failover, an earlier rebuild -- the result is the
        same wiring.
        """
        self.graph = graph
        self.home_parent = home = {
            (node, item_id): parent
            for node, state in graph.nodes.items()
            for item_id, parent in state.parent_for.items()
        }
        target = set()
        for (child, item_id), parent in home.items():
            while parent in self.crashed:
                parent = home[(parent, item_id)]
            target.add((parent, child, item_id, graph.nodes[child].receive_c[item_id]))
        wired = {(p, ch, it, c) for (ch, it), (p, c) in self.parent_of.items()}
        self.apply_diff(
            ReconfigurationDiff(
                added=frozenset(target - wired), removed=frozenset(wired - target)
            ),
            now,
            resync,
        )

    def apply_diff(self, diff, now: float, resync: frozenset = frozenset()) -> None:
        """Tear down removed service edges, wire up added ones.

        Args:
            diff: The change's edge-level
                :class:`~repro.core.dynamics.ReconfigurationDiff`.
            now: Simulated time the reconfiguration takes effect.
            resync: Nodes whose existing copies are stale (a rejoining
                repository) and must initial-sync even though they still
                hold a delivery log from their earlier membership.
        """
        self.counters.record_reconfiguration(
            n_added=len(diff.added), n_removed=len(diff.removed)
        )
        store = self.store
        rewired = {(child, item_id) for _parent, child, item_id, _c in diff.added}
        for parent, child, item_id, c in sorted(diff.removed):
            store.unwire(parent, child, item_id, c)
            if self._parent(child, item_id) == parent:
                del self.parent_of[(child, item_id)]
            if (child, item_id) not in rewired:
                # The child no longer receives the item at all (departed,
                # or the rebuild dropped the relay).
                store.unsubscribe(child, item_id)
        # Parents must hold a current copy before their children sync
        # from them, so wire additions root-downward per item tree.
        added = sorted(diff.added, key=lambda e: (e[2], self._depth(e[1], e[2]), e))
        for parent, child, item_id, c in added:
            log = store.log(child, item_id)
            if log is None or child in resync:
                # New subscription (or a rejoiner with stale state): the
                # child initial-syncs the parent's current copy (charged
                # as reconfiguration cost, not as an update message).
                if log is None:
                    log = store.log(child, item_id, create=True)
                log.append((now, self.current_value(parent, item_id)))
            # A re-homed subscription falls through: the child keeps its
            # own copy, and either way the log tail is what it holds.
            store.wire(parent, child, item_id, c, log[-1][1])
            self.parent_of[(child, item_id)] = (parent, c)

    def _depth(self, node: int, item_id: int) -> int:
        """Hops from the item's root to ``node`` along its home tree."""
        depth = 0
        parent = self.home_parent.get((node, item_id))
        while parent is not None:
            depth += 1
            parent = self.home_parent.get((parent, item_id))
        return depth

    def current_value(self, node: int, item_id: int) -> float:
        """The copy ``node`` holds for ``item_id`` right now."""
        if node == self._root_of[item_id]:
            return self.store.source_value(item_id)
        log = self.store.log(node, item_id)
        if log is None:
            raise SimulationError(
                f"node {node} has no copy of item {item_id} to serve from"
            )
        return log[-1][1]

    # ------------------------------------------------------------------
    # Fidelity owed, and scored
    # ------------------------------------------------------------------

    def _owe(self, repo: int, now: float) -> None:
        """Open and close ``repo``'s scoring segments by the one rule: a
        pair is owed while its repository is a member, is not crashed
        and requires the item, at its current tolerance."""
        profile = self.members.get(repo)
        owed = {} if profile is None or repo in self.crashed else profile.requirements
        segments = self.segments
        held = {item_id for r, item_id in segments if r == repo}
        # Ascending ids: new keys, and with them the scoring order, come
        # out the same whatever event opened them.
        for item_id in sorted(held | set(owed)):
            spans = segments.get((repo, item_id))
            open_c = spans[-1][2] if spans and spans[-1][1] is None else None
            c = owed.get(item_id)
            if open_c == c:
                continue
            if open_c is not None:
                spans[-1][1] = now
            if c is not None:
                segments.setdefault((repo, item_id), []).append([now, None, c])

    def score(self, traces, duration: float | None = None, only=None):
        """``(accumulator, (repository, item) -> loss %)`` from the
        store's delivery logs, over every pair of :attr:`segments` in
        order and inside the item's window (truncated to ``duration``):
        a pair no reconfiguration touched is one open segment, plain loss
        of fidelity bit for bit, and a pair never owed inside its window
        is left out.  ``only`` keeps a subset of repositories (a fleet
        worker scores its own shard)."""
        accumulator = FidelityAccumulator()
        per_pair: dict[tuple[int, int], float] = {}
        windows = scoring_windows(traces, duration)
        for (repo, item_id), segments in self.segments.items():
            if only is not None and repo not in only:
                continue
            log = self.store.log(repo, item_id)
            if log is None:
                # Never wired for the item (cannot happen after LeLA
                # validation, but fail loud rather than silently).
                raise SimulationError(
                    f"repository {repo} has no delivery log for item {item_id}"
                )
            trace = traces[item_id]
            t0, t1 = windows[item_id]
            loss = segmented_loss(
                trace.times, trace.values, *unzip_log(log), segments, t0, t1
            )
            if loss is None:
                continue
            accumulator.add(repo, item_id, loss)
            per_pair[(repo, item_id)] = loss
        return accumulator, per_pair

    def extras(self) -> dict:
        """What each of the run's sources did, as result extras."""
        extras: dict = {}
        if self.membership is not None:
            extras["churn_events"] = len(self.churn)
            extras["final_members"] = len(self.members)
        if self.failures is not None:
            extras["failure_events"] = len(self.failures)
            extras["crashes"] = self.failures.count("crash")
            extras["partitions"] = self.failures.count("link_down")
        if self.adaptive is not None:
            extras["adaptive_ticks"] = self.adaptive.ticks
            extras["adaptive_triggered"] = self.adaptive.triggered
            extras["adaptive_rewires"] = self.adaptive.rewires
        return extras

    # ------------------------------------------------------------------
    # Churn
    # ------------------------------------------------------------------

    def _on_churn(self, event: ChurnEvent, now: float) -> None:
        """Apply one membership change to the running network."""
        repo = event.repository
        membership = self.membership
        profile = event.profile()
        if profile is None:  # a departure, or a join without requirements
            profile = self.profiles[repo]
        resync: frozenset = frozenset()
        if event.kind == "depart":
            membership.leave(repo)
            self.departed.add(repo)
            del self.members[repo]
        elif event.kind == "join":
            if repo in self.departed:
                # A rejoining repository comes back with stale state: it
                # must receive deliveries again and initial-sync fresh
                # copies rather than resume from its pre-departure ones.
                self.departed.discard(repo)
                resync = frozenset((repo,))
            # A join inserts into what is current (an adaptive rewire
            # included); a departure or an update re-runs LeLA over the
            # members in join order, from scratch.
            membership.graph = self.graph
            membership.join(profile)
            self.members[repo] = profile
        else:  # coherency / data-needs change
            membership.update_requirements(profile)
            self.members[repo] = profile
        self._owe(repo, now)
        self._retarget(membership.graph, now, resync)

    # ------------------------------------------------------------------
    # Unplanned failures
    # ------------------------------------------------------------------

    def _apply_failure(self, event: FailureEvent, now: float) -> None:
        """Apply one crash/recover/link event to the running network."""
        if event.kind == "link_down":
            self.down_links.add(event.link)
            return
        if event.kind == "link_up":
            self.down_links.discard(event.link)
            return
        repo = event.repository
        if event.kind == "crash":
            self.crashed.add(repo)
            self._owe(repo, now)
            self._fail_over(repo, now)
        else:  # recover
            self.crashed.discard(repo)
            self._owe(repo, now)
            self._resync(repo, now)
            self._restore_home(repo, now)

    def _parent(self, node: int, item_id: int) -> int | None:
        edge = self.parent_of.get((node, item_id))
        return None if edge is None else edge[0]

    def _live_parent(self, node: int, item_id: int) -> int | None:
        """The nearest non-crashed ancestor serving ``item_id`` above
        ``node``, or ``None`` when the walk leaves the tree (the node
        roots the item, as multi-source roots do)."""
        parent = self._parent(node, item_id)
        while parent is not None and parent in self.crashed:
            parent = self._parent(parent, item_id)
        return parent

    def _move(self, moves: list[tuple[int, int, int, int, float]], now: float) -> None:
        """Re-parent ``(old, new, child, item, c)`` moves as one diff."""
        if moves:
            self.apply_diff(
                ReconfigurationDiff(
                    added=frozenset((new, ch, it, c) for _old, new, ch, it, c in moves),
                    removed=frozenset((old, ch, it, c) for old, _new, ch, it, c in moves),
                ),
                now,
            )

    def _fail_over(self, repo: int, now: float) -> None:
        """Re-home the crashed repository's dependents to backup parents."""
        moves = []
        for (child, item_id), (parent, c) in self.parent_of.items():
            if parent != repo:
                continue
            backup = self._live_parent(repo, item_id)
            if backup is not None:  # else: dependents wait for recovery
                moves.append((repo, backup, child, item_id, c))
        self._move(moves, now)

    def _restore_home(self, repo: int, now: float) -> None:
        """Wire re-homed dependents back to their recovered home parent."""
        moves = []
        for (child, item_id), home in self.home_parent.items():
            current, c = self.parent_of.get((child, item_id), (None, None))
            if home == repo and current is not None and current != repo:
                moves.append((current, repo, child, item_id, c))
        self._move(moves, now)

    def _resync(self, repo: int, now: float) -> None:
        """Anti-entropy resync of a recovered repository's stale copies.

        Setdiscovery-style: one comparison against the live parent per
        subscribed item (the discovery round), one transfer only for
        items whose copy actually diverged while the repository was
        down -- the missed update-set, never a full state transfer.
        """
        checks = 0
        messages = 0
        for item_id in sorted(it for node, it in self.parent_of if node == repo):
            provider = self._live_parent(repo, item_id)
            if provider is None:
                continue  # whole ancestry down: nothing fresher to pull
            checks += 1
            value = self.current_value(provider, item_id)
            log = self.store.log(repo, item_id)
            if value != log[-1][1]:
                log.append((now, value))
                messages += 1
        if checks:
            self.counters.record_resync(checks, messages)

    # ------------------------------------------------------------------
    # Adaptive re-optimization
    # ------------------------------------------------------------------

    def _on_tick(self, now: float) -> None:
        """One drift evaluation; wire the re-optimized graph if one fires."""
        adaptive = self.adaptive
        # Re-optimize what is current: the graph and the members in join
        # order with their current profiles.
        adaptive.graph, adaptive.profiles = self.graph, list(self.members.values())
        diff = adaptive.on_tick(now, self.store.message_counts())
        metrics = getattr(self.observer, "metrics", None)
        if metrics is not None:
            metrics.counter("adaptive.ticks").inc()
            drifts = adaptive.last_drifts
            if drifts:
                metrics.gauge("adaptive.max_drift").set(max(drifts.values()))
                hist = metrics.histogram(
                    "adaptive.drift", bounds=(0.1, 0.25, 0.5, 1.0, 2.0, 5.0)
                )
                for value in drifts.values():
                    hist.observe(value)
            if diff is not None:
                metrics.counter("adaptive.rewires").inc()
        if diff is not None:
            self._retarget(adaptive.graph, now)
