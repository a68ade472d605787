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
``departed``, which links are down and which messages are lost
(:class:`LinkLoss`), the ``[start, end, c]``
fidelity-scoring ``segments``, the one current ``graph`` -- and all the
*rules*.  The three sources compose because they share them:

- a churn event and an adaptive rewire each make one LeLA call
  (:class:`LelaInputs`) for the next graph -- a join inserts into a
  copy of the current graph, a departure or a requirement change
  re-runs LeLA over the current members, a drift tick the
  :class:`~repro.engine.adaptive.AdaptiveController` lets through
  re-optimizes them under load -- and one rule wires it
  (:meth:`~ReconfigurationCore._retarget`): the new graph's edges,
  every crashed parent replaced by its nearest non-crashed ancestor,
  diffed against what is *wired*;
- a crash fails the orphaned dependents over to the nearest live
  ancestor; a recovery resyncs only the copies that diverged (one
  compare round, then transfer -- the ``setdiscovery`` shape) and then
  re-homes the dependents;
- a pair is owed fidelity while its repository is a member, is not
  crashed and requires the item, at its current tolerance: one
  predicate opens and closes every scoring segment, and :meth:`score`
  walks them;
- a pair's modeled clients are served every *delivered* value its log
  holds while the pair is wired, at the coherency of the edge that
  wires it: the core drives every wire and unsubscribe and writes every
  log entry that is not a delivery (:meth:`sync`), so it records when
  clients are served, and :meth:`serve_clients` serves them at scoring
  time, on every plane;
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
rather than by golden suite.  The run's first graph reaches a plane
through the same port: :meth:`~ReconfigurationCore.wire_initial`
creates, primes and wires every pair in the one order that fixes each
edge group's columns.

:meth:`~ReconfigurationCore.timeline` hands every plane the run's one
time-ordered list of control instants; a plane applies each entry
*before* any update or delivery at the same instant.
"""

from __future__ import annotations

import copy
import weakref
from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from repro.core.dissemination.filtering import Staircase
from repro.core.dynamics import ReconfigurationDiff, edges_of
from repro.core.fidelity import (
    FidelityAccumulator,
    scoring_windows,
    segmented_losses,
)
from repro.core.interests import InterestProfile
from repro.core.lela import LelaBuilder, build_d3g
from repro.core.metrics import CostCounters
from repro.core.preference import PreferenceFunction, get_preference_function
from repro.core.tree import DisseminationGraph
from repro.engine.adaptive import AdaptiveController
from repro.engine.churn import ChurnEvent
from repro.engine.failures import FailureEvent
from repro.errors import SimulationError
from repro.sim.rng import RandomStreams

__all__ = ["EdgeStore", "LelaInputs", "LinkLoss", "ReconfigurationCore"]


class LinkLoss(dict):
    """Seeded Bernoulli message loss, one stream per directed link.

    ``self[src, dst]`` is the bound ``random`` of the link's own stream,
    ``message-loss:{src}->{dst}``, created on its first draw: what a link
    loses depends only on what its sender sends, however a plane
    interleaves senders.  The engine's loop reads it inline; the other
    planes call :meth:`drops`.
    """

    def __init__(self, seed: int, probability: float) -> None:
        super().__init__()
        self.probability = probability
        self._streams = RandomStreams(seed)

    def __missing__(self, link: tuple[int, int]):
        draw = self[link] = self._streams.stream("message-loss:%d->%d" % link).random
        return draw

    def drops(self, src: int, dst: int) -> bool:
        """Is the message ``src`` puts on link ``src -> dst`` now lost?"""
        return self[src, dst]() < self.probability


@dataclass(frozen=True)
class LelaInputs:
    """A run's LeLA inputs, held once, and the two calls made with them.

    Section 4 reapplies LeLA to the current membership; churn and drift
    differ only in the step they take.  A join inserts the newcomer into
    a graph (:meth:`insert`: LeLA is online); a departure, a requirement
    change and a drift tick rebuild over the members in join order
    (:meth:`build`), the first two with ``default_rng(seed)``, a tick
    with the ``lela`` stream and the observed load.
    """

    source: int
    delay_ms: Callable[[int, int], float]
    degree: int
    preference: PreferenceFunction
    p_percent: float
    seed: int

    @classmethod
    def of(cls, config, network, degree: int) -> "LelaInputs":
        """The inputs every graph of a run of ``config`` is built with."""
        return cls(
            network.source,
            network.delay_ms,
            degree,
            get_preference_function(config.preference),
            config.p_percent,
            config.seed,
        )

    def budgets(self, members) -> dict[int, int]:
        """Push-connection budgets: ``degree`` for the source and for
        each of ``members``."""
        return dict.fromkeys((self.source, *members), self.degree)

    def insert(self, graph: DisseminationGraph, profile: InterestProfile, members) -> None:
        """Insert ``profile``'s repository into ``graph``, in place.

        ``members`` are the repositories after the join, in join order:
        they set the budgets and the seed (``seed + len(members)``).
        """
        builder = LelaBuilder(
            source=self.source,
            comm_delay_ms=self.delay_ms,
            offered_degree=self.budgets(members),
            preference=self.preference,
            p_percent=self.p_percent,
            rng=np.random.default_rng(self.seed + len(members)),
        )
        builder.graph = graph
        builder.insert(profile)

    def build(self, profiles, rng, node_load=None) -> DisseminationGraph:
        """A fresh, validated graph over ``profiles`` in join order."""
        return build_d3g(
            profiles,
            self.source,
            self.delay_ms,
            self.degree,
            self.preference,
            self.p_percent,
            rng=rng,
            node_load=node_load,
        )


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
        """The pair's mutable delivery log, flat ``[t0, v0, t1, v1, ...]``
        (so ``log[-1]`` is the value held), or ``None``; ``create``
        starts an empty one instead."""

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
        graph: The graph as wired; it starts as :attr:`graph`.
        source: The node that roots every item (:attr:`source`).
        profiles: ``repository -> InterestProfile`` (scoring segments,
            and the profile a requirement-less join comes back with).
        churn: The run's :class:`~repro.engine.churn.ChurnSchedule`.
        failures: The run's
            :class:`~repro.engine.failures.FailureSchedule`.
        adaptive: This run's own
            :class:`~repro.engine.adaptive.AdaptiveController`.
        lela: The run's :class:`LelaInputs` (with churn or adaptive).
        loss: The run's :class:`LinkLoss`, drawn after the down-link
            test (``None``: nothing is lost).
        polls: The ``(repository, item)`` pairs that poll the source
            instead of riding :attr:`graph` (``setup.polls``).

    Attributes:
        graph: The current graph, never mutated: a join inserts into a
            copy, and each graph that is wired is rebound here.
        source: The node that roots every item's tree.
        members: ``repository -> InterestProfile``, the current members
            in join order with their current requirements (initially
            the graph's repositories, in graph order, then the polling
            ones).
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
        serving: ``(repository, item) -> [(entry, c-or-None), ...]``:
            from log entry ``entry`` on (entry 0 is the primed initial
            value), the pair's modeled clients are served at ``c``, or
            not at all -- a step per wire, per unsubscribe and around
            every sync entry.
        applied: Control-timeline entries executed so far.
        observer: Optional out-of-band trace observer; only its
            ``metrics`` registry is used, for adaptive telemetry.
    """

    def __init__(
        self,
        store: EdgeStore,
        counters: CostCounters,
        graph,
        source: int,
        profiles: dict[int, InterestProfile],
        *,
        churn=None,
        failures=None,
        adaptive=None,
        lela: LelaInputs | None = None,
        loss: LinkLoss | None = None,
        polls=(),
    ) -> None:
        # The plane owns its core, never the reverse: a proxy keeps the
        # pair acyclic, so a finished run (arrays, logs and all) is freed
        # by refcount the moment it goes out of scope instead of waiting
        # for a cycle-collector pass -- a sweep's peak RSS depends on it.
        self.store = weakref.proxy(store)
        self.counters = counters
        self.profiles = profiles
        self.churn = churn
        self.failures = failures
        self.adaptive = adaptive
        self.lela = lela
        self.loss = loss
        self.polls = polls
        self.observer = None
        self.crashed: set[int] = set()
        self.departed: set[int] = set()
        self.down_links: set[tuple[int, int]] = set()
        self.applied = 0
        self.graph = graph
        self.source = source
        self.parent_of: dict[tuple[int, int], tuple[int, float]] = {
            (node, item_id): (parent, state.receive_c[item_id])
            for node, state in graph.nodes.items()
            for item_id, parent in state.parent_for.items()
        }
        self.home_parent = {key: edge[0] for key, edge in self.parent_of.items()}
        self.serving: dict[tuple[int, int], list[tuple]] = {}
        self.members = {
            repo: profiles[repo]
            for repo in (*graph.nodes, *(repo for repo, _item in polls))
            if repo != source
        }
        self.segments: dict[tuple[int, int], list[list]] = {}
        for repo, profile in profiles.items():
            if repo not in self.members:
                continue  # late joiner: scoring starts at its join event
            for item_id, c_own in profile.requirements.items():
                self.segments[(repo, item_id)] = [[0.0, None, c_own]]

    @classmethod
    def for_setup(cls, setup, store, counters) -> "ReconfigurationCore":
        """The core for one run of ``setup.config`` on ``store``.

        Every run starts from ``setup.graph`` itself: no run mutates a
        graph, so a shared setup stays read-only.
        """
        config = setup.config
        return cls(
            store,
            counters,
            setup.graph,
            setup.source,
            setup.profiles,
            churn=config.churn,
            failures=config.failures,
            adaptive=None if config.adaptive is None else AdaptiveController(config.adaptive),
            lela=LelaInputs.of(config, setup.network, setup.effective_degree),
            loss=LinkLoss(config.seed, p) if (p := config.message_loss_probability) else None,
            polls=setup.polls,
        )

    def wire_initial(self, traces) -> None:
        """Wire :attr:`graph` into the store: the run's first ``d3g``.

        Items in trace order, nodes in graph order, children in
        child-table order -- the order that fixes each edge group's
        columns, and with them every FIFO departure, on every plane.
        Each child's log is created and primed with the item's initial
        value as entry 0 (no delivery, never served, not a :meth:`sync`)
        before its edge is wired with that value as last-sent, and its
        clients are served from entry 1 on.  A polling pair is created
        and primed the same way, after the graph, with no edge; its
        clients are served at its own tolerance.  Nothing is charged:
        the first wiring is where the run starts, not a reconfiguration.
        """
        store, graph = self.store, self.graph
        for item_id, trace in traces.items():
            initial = trace.initial_value
            for node in graph.nodes:
                for child, c in graph.children_for_item(node, item_id):
                    store.log(child, item_id, create=True).extend((0.0, initial))
                    store.wire(node, child, item_id, c, initial)
                    self._serve_from(child, item_id, c)
        for repo, item_id in self.polls:
            store.log(repo, item_id, create=True).extend((0.0, traces[item_id].initial_value))
            self._serve_from(repo, item_id, self.profiles[repo].requirements[item_id])

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
                # or the rebuild dropped the relay): nobody is served
                # from the pair, in-flight copies included.
                store.unsubscribe(child, item_id)
                self._serve_from(child, item_id, None)
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
                self.sync(child, item_id, now, self.current_value(parent, item_id))
            # A re-homed subscription falls through: the child keeps its
            # own copy, and either way the log tail is what it holds.
            store.wire(parent, child, item_id, c, log[-1])
            self.parent_of[(child, item_id)] = (parent, c)
            self._serve_from(child, item_id, c)

    def sync(self, node: int, item_id: int, now: float, value: float) -> None:
        """Append a sync entry -- a copy the pair took from its provider
        outside the dissemination flow (an initial sync, a recovery
        resync, a fleet anti-entropy session) -- to the pair's log.

        The entry is scored like any other, but it is no delivery, so
        :attr:`serving` steps around it: its clients are not served it.
        """
        log = self.store.log(node, item_id)
        log.append(now)
        log.append(value)
        steps = self.serving.get((node, item_id))
        if steps and steps[-1][1] is not None:
            entry = len(log) // 2
            steps += [(entry - 1, None), (entry, steps[-1][1])]

    def _serve_from(self, node: int, item_id: int, c: float | None) -> None:
        """From the pair's next log entry on, serve its clients at ``c``
        (``None``: serve nobody)."""
        entry = len(self.store.log(node, item_id)) // 2
        self.serving.setdefault((node, item_id), []).append((entry, c))

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
        if node == self.source:
            return self.store.source_value(item_id)
        log = self.store.log(node, item_id)
        if log is None:
            raise SimulationError(
                f"node {node} has no copy of item {item_id} to serve from"
            )
        return log[-1]

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
        windows = scoring_windows(traces, duration)
        keys, pairs = [], []
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
            keys.append((repo, item_id))
            pairs.append((traces[item_id], log, segments, *windows[item_id]))
        accumulator = FidelityAccumulator()
        per_pair: dict[tuple[int, int], float] = {}
        for (repo, item_id), loss in zip(keys, segmented_losses(pairs)):
            if loss is None:
                continue
            accumulator.add(repo, item_id, loss)
            per_pair[(repo, item_id)] = loss
        return accumulator, per_pair

    def serve_clients(self, blocks, traces, only=None) -> None:
        """Serve every pair's modeled clients as :attr:`serving` says and
        charge ``counters`` once.

        ``blocks`` is the setup's ``(repository, item) -> ascending
        client tolerances`` (``None`` when the run models none).  Each
        served log entry is one check per client, by the repository-local
        Eq. (3) + Eq. (7) test at the client's own tolerance whatever the
        repository-plane policy, against what the client last got (the
        item's initial value at first).  ``only`` keeps a subset of
        repositories (a fleet worker serves its own shard).
        """
        checks = messages = 0
        for (repo, item_id), tols in (blocks or {}).items():
            steps = self.serving.get((repo, item_id))
            if not steps or (only is not None and repo not in only):
                continue
            log = self.store.log(repo, item_id)
            stairs = Staircase(memoryview(tols), traces[item_id].initial_value)
            for (entry, c), (end, _) in zip(steps, steps[1:] + [(None, None)]):
                if c is not None:
                    values = log[2 * entry + 1:None if end is None else 2 * end:2]
                    checks += len(values) * len(tols)
                    messages += stairs.serve(values, c)
        self.counters.record_client_serving(checks, messages)

    def extras(self) -> dict:
        """What each of the run's sources did, as result extras."""
        extras: dict = {}
        if self.churn is not None:
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
        lela = self.lela
        profile = event.profile()
        if profile is None:  # a departure, or a join without requirements
            profile = self.profiles[repo]
        resync: frozenset = frozenset()
        if event.kind == "join":
            if repo in self.departed:
                # A rejoining repository comes back with stale state: it
                # must receive deliveries again and initial-sync fresh
                # copies rather than resume from its pre-departure ones.
                self.departed.discard(repo)
                resync = frozenset((repo,))
            self.members[repo] = profile
            # LeLA is online: a join inserts into what is current (an
            # adaptive rewire included), on a copy -- a graph another
            # run or an earlier instant can see is never mutated.
            graph = copy.deepcopy(self.graph)
            lela.insert(graph, profile, self.members)
            graph.validate(max_dependents=lela.budgets(self.members))
        else:
            if event.kind == "depart":
                self.departed.add(repo)
                del self.members[repo]
            else:  # coherency / data-needs change
                self.members[repo] = profile
            # The algorithm is reapplied: LeLA over the members in join
            # order, from scratch.
            graph = lela.build(
                list(self.members.values()), np.random.default_rng(lela.seed)
            )
        self._owe(repo, now)
        self._retarget(graph, now, resync)

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
        ``node``, or ``None`` when the walk leaves the tree: the node
        roots the item, or every ancestor is crashed (the rules do not
        assume that a tree's root stays up)."""
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
            if value != self.store.log(repo, item_id)[-1]:
                self.sync(repo, item_id, now, value)
                messages += 1
        if checks:
            self.counters.record_resync(checks, messages)

    # ------------------------------------------------------------------
    # Adaptive re-optimization
    # ------------------------------------------------------------------

    def _on_tick(self, now: float) -> None:
        """One drift evaluation; wire the re-optimized graph if one fires."""
        adaptive = self.adaptive
        load = adaptive.on_tick(now, self.store.message_counts())
        graph = None
        if load is not None:
            # Re-optimize what is current: the members in join order with
            # their current profiles, under the observed load.  A rebuild
            # that changes no edge is not a rewire.
            lela = self.lela
            graph = lela.build(
                list(self.members.values()),
                RandomStreams(lela.seed).stream("lela"),
                node_load=load,
            )
            if edges_of(graph) == edges_of(self.graph):
                graph = None
            else:
                adaptive.rewired(now)
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
            if graph is not None:
                metrics.counter("adaptive.rewires").inc()
        if graph is not None:
            self._retarget(graph, now)
