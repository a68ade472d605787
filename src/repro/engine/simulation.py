"""The dissemination simulation: one engine, one flat loop.

Semantics (DESIGN.md §5):

- Source updates fire at trace timestamps; only *changes* are simulated
  (polling repeats carry no information).  The traces themselves come
  from the config's workload (:mod:`repro.workloads`), so the same
  engine serves stationary Table 1 dynamics, flash crowds, diurnal
  cycles, or replayed recordings unchanged.
- When an update reaches a node, the node's local copy refreshes
  immediately, then the node checks each dependent registered for the
  item.  Checks are instantaneous bookkeeping; a *forwarded* copy costs
  ``comp_delay`` of serialised server time at the node (the paper's
  12.5 ms covers the check plus preparing the transmission) before it
  leaves, then travels the precomputed end-to-end network delay.
- The per-node serialisation is what makes a node with many dependents a
  bottleneck -- the mechanism behind the U-curve's rising arm and the
  no-cooperation saturation of Figures 5/6.

:class:`VectorizedSimulation` is **the** engine -- what
:func:`make_simulation` returns for every run.  Its sibling under
:class:`SimulationBase` (the setup, the counters, the reconfiguration
core, the delivery logs and the scoring) is the per-event **reference**
in :mod:`repro.engine.oracle` -- one ``Event`` object, one callback
dispatch and one policy-object call per message -- which
``kernel="scalar"`` reaches, for debugging;
``tests/engine/test_vectorized_golden.py`` pins bit-identical results
(loss, per-pair losses, every counter field) across policies, workloads
and reconfiguration sources.

The engine's hot path touches only flat lists, tuples and ints:

- **Edge groups.**  Each (node, item) pair that sends or receives
  becomes one integer group id, built straight from the run's
  ``(graph, root, item ids)`` trees.  A group stores its dependents as
  four parallel *Python lists* -- child group ids, serving tolerances
  (quantised for the centralised policy, exactly as
  :class:`~repro.core.dissemination.filtering.EdgeFilter` stores them),
  per-edge last-sent values, and precomputed end-to-end delays -- plus
  the scalars the decision needs (the node's own receive coherency,
  whether it is the source).  The paper's case for a small degree of
  cooperation makes a group 1-4 wide, where one numpy call costs ~20
  scalar decisions; lists win or tie at every width the repo can
  produce (see ``docs/architecture/vectorized-kernel.md``).
- **One loop.**  :meth:`VectorizedSimulation.run` is the whole hot
  path: a source update and a delivery do their own bookkeeping and
  fall through to one inline *edge-group step*, a single pass over the
  group's columns that decides each dependent -- with the policy's entry
  in :data:`~repro.core.dissemination.filtering.FORWARD_RULES`, the very
  functions the reference policy table and the live nodes call -- chains
  the node's FIFO departures (the reference station's own float
  additions, on a per-node list) and pushes each surviving message.
  Per event that leaves the kernel's generator resume and one rule call
  per dependent: 1.9 Python-level calls on the paper's base case.
- **Events.**  A :class:`~repro.sim.kernel.BatchKernel` merges the
  precomputed source timeline with a tuple heap of in-flight
  deliveries -- no per-message Event objects, no callback dispatch; the
  loop pushes onto the kernel's ``heap`` itself, ``push``'s NaN/past
  guard kept as one inline comparison.  A copy sent to a pair with *no
  dependents* never reaches the heap in a static, unobserved run: it
  *lands* at the push site (the argument is beside ``lands`` in
  :meth:`~VectorizedSimulation.run`) -- 43 % of the base case's
  deliveries, all of them at no cooperation -- and is added back into
  ``events_processed``, so the count stays the reference's.
- **Counters.**  Per-node tallies are the flat lists of an
  :class:`~repro.core.metrics.ArrayCounters`; the other totals are local
  ints stored into it when the loop ends and folded into
  :class:`~repro.core.metrics.CostCounters` from there.

What is genuinely wide stays numpy: the
:class:`~repro.traces.schedule.UpdateSchedule` arrays.  The two places
where one update meets a whole *column* of tolerances -- a pair's
modeled-client block on every delivery, an item's unique tolerances at
the centralised source -- hold their last-sent state as a
:class:`~repro.core.dissemination.filtering.Staircase`: runs of equal
values over the ascending column, each decided by its end elements and
one ``bisect`` (a delivery to a ~250-client block costs ~2 runs).  The
client tolerances themselves stay the setup's read-only arrays, seen
through zero-copy ``memoryview``s; no per-client last-served array
exists.

Reconfiguration (a churn schedule, a failure schedule or an adaptive
policy in the config): the run's control instants are applied inline,
each before any update or delivery at the same instant.  *What* they do
is :class:`~repro.engine.reconfig.ReconfigurationCore`'s business alone;
an engine is one of its edge stores: ``wire`` / ``unwire`` and friends
patch the edge-group columns (groups that exist only in a rebuilt graph
are materialised on first use), nothing more.  On the hot path the
engine reads the core's ``crashed`` / ``departed`` / ``down_links`` sets
(a message toward an unavailable repository or over a down link is a
drop, decided before the Bernoulli loss stream is consumed -- one scalar
draw per message that enters the network) and at the end scores
fidelity over the core's availability segments.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from math import inf

from repro.core.dissemination.filtering import (
    FORWARD_RULES,
    PASS_THROUGH,
    Staircase,
    StaircaseTagger,
    quantise_tolerance,
)
from repro.core.metrics import ArrayCounters, CostCounters
from repro.engine.builder import SimulationSetup, build_setup
from repro.engine.config import SimulationConfig
from repro.engine.reconfig import ReconfigurationCore
from repro.engine.results import SimulationResult
from repro.errors import SimulationError
from repro.sim.kernel import BatchKernel
from repro.sim.rng import RandomStreams
from repro.traces.schedule import UpdateSchedule

__all__ = [
    "SimulationBase",
    "VectorizedSimulation",
    "make_simulation",
    "run_simulation",
]


class SimulationBase:
    """What the engine and its reference oracle share: one built setup,
    the run's counters and reconfiguration core, the per-pair delivery
    logs and the fidelity scoring over them.

    A subclass is the core's edge store (``wire`` / ``unwire`` /
    ``unsubscribe`` / ``message_counts`` over its own tables) and
    supplies ``run()``.

    Args:
        setup: The built setup; stays read-only, so many runs can share it.
        observer: Out-of-band observability hook
            (:class:`repro.obs.trace.TraceRecorder` or compatible).
            Never part of the config -- result-cache keys and
            fingerprints are unaffected -- and consulted only behind
            ``is not None`` guards, so an unobserved run does no extra
            work and an observed run is bit-identical (the observer
            records decisions; it never makes them).
        trees: ``(graph, root, item ids)`` triples to wire up; ``None``
            for the setup's single graph serving every item (the
            multi-source extension passes one triple per source).
    """

    def __init__(self, setup: SimulationSetup, observer=None, trees=None):
        self.setup = setup
        self.observer = observer
        self.counters = CostCounters()
        self._ran = False
        self._comp_delay_s = setup.config.comp_delay_ms / 1000.0
        self._loss_probability = setup.config.message_loss_probability
        self._loss_rng = (
            RandomStreams(setup.config.seed).stream("message-loss")
            if self._loss_probability > 0.0
            else None
        )
        self._source_value: dict[int, float] = {}
        # Modeled-client plane: per (repo, item), the clients' ascending
        # tolerance array -- read-only, the setup's own.
        self._client_tols = getattr(setup, "client_tolerances", None) or {}
        # All control state and every reconfiguration rule live in the
        # core; the engine is its edge store.
        self._reconfig = ReconfigurationCore.for_setup(
            setup, self, self.counters, trees
        )
        self._reconfig.observer = observer
        self._root_of: dict[int, int] = {}
        # Per (repo, item): delivery log [(time, value), ...].
        self._deliveries: dict[tuple[int, int], list[tuple[float, float]]] = {}
        for graph, root, item_ids in self._reconfig.trees:
            for item_id in item_ids:
                self._root_of[item_id] = root
                initial = setup.traces[item_id].initial_value
                for node, state in graph.nodes.items():
                    if node != root and item_id in state.receive_c:
                        self._deliveries[(node, item_id)] = [(0.0, initial)]

    # ------------------------------------------------------------------
    # The store-independent half of the edge-store port
    # ------------------------------------------------------------------

    def log(self, node: int, item_id: int, create: bool = False):
        if create:
            return self._deliveries.setdefault((node, item_id), [])
        return self._deliveries.get((node, item_id))

    def source_value(self, item_id: int) -> float:
        return self._source_value.get(
            item_id, self.setup.traces[item_id].initial_value
        )

    # ------------------------------------------------------------------

    def _begin_run(self) -> UpdateSchedule:
        """Claim this object's one run and return its source-update
        timeline (precomputed by the builder; recomputed here only for
        hand-built setups).  A rerun is refused: the first run's result
        holds the counters and logs a second one would write into."""
        if self._ran:
            raise SimulationError(
                "a simulation runs once; build a new one (make_simulation(setup))"
            )
        self._ran = True
        schedule = getattr(self.setup, "update_schedule", None)
        if schedule is None:
            schedule = UpdateSchedule.from_traces(self.setup.traces)
        return schedule

    def _score(self, span: float, events_processed: int) -> SimulationResult:
        accumulator, per_pair = self._reconfig.score(self.setup.traces)
        extras: dict = {
            "per_pair_loss": per_pair,
            "workload": self.setup.config.workload.name,
            **self._reconfig.extras(),
        }
        return SimulationResult(
            loss_of_fidelity=accumulator.system_loss(),
            per_repository_loss=accumulator.per_repository(),
            counters=self.counters,
            tree_stats=self._reconfig.graph.stats(),
            effective_degree=self.setup.effective_degree,
            avg_comm_delay_ms=self.setup.avg_comm_delay_ms,
            events_processed=events_processed,
            sim_span_s=span,
            extras=extras,
        )

    def delivery_log(self, repo: int, item_id: int) -> list[tuple[float, float]]:
        """The (time, value) receive log for one repository/item pair.

        Entries are in arrival order -- by time, then push order -- on
        both classes: the reference pops events in that order, and the
        engine either pops its heap in it or, for a pair with
        no dependents in a static run, appends each arrival where it is
        sent, which is the same order (see
        ``docs/architecture/vectorized-kernel.md``, "Leaf landings").
        """
        return list(self._deliveries.get((repo, item_id), []))


class VectorizedSimulation(SimulationBase):
    """The engine: edge-group columns drained by one flat loop,
    bit-identical to the reference oracle."""

    def __init__(self, setup: SimulationSetup, observer=None, trees=None):
        super().__init__(setup, observer, trees)
        name = setup.config.policy
        self._rule = FORWARD_RULES[name]
        # The centralised policy serves at quantised tolerances, keeps no
        # per-edge last-sent state, and examines updates at the source.
        self._centralized = name == "centralized"
        self._gid_of: dict[tuple[int, int], int] = {}
        self._g_node: list[int] = []
        self._g_item: list[int] = []
        self._g_issrc: list[bool] = []
        self._g_prc: list[float] = []
        self._g_child_gid: list[list[int]] = []
        self._g_cs: list[list[float]] = []
        self._g_last: list[list[float]] = []
        self._g_delay: list[list[float]] = []
        self._g_log: list[list | None] = []
        self._g_clients: list[Staircase | None] = []
        self._root_gid: dict[int, int] = {item_id: -1 for item_id in setup.traces}
        # This run's whole client-plane state: one staircase per client
        # block over a zero-copy view of the setup's ascending tolerance
        # array.  Keyed by pair, so a block's last-served values survive
        # ``unsubscribe`` -> ``wire``.
        self._client_stairs = {
            key: Staircase(memoryview(tols), setup.traces[key[1]].initial_value)
            for key, tols in self._client_tols.items()
        }
        # Dense per-node lists cover the whole topology: churn can wire
        # repositories the initial graph never held.
        n_nodes = setup.network.topology.n_nodes
        self._busy = [0.0] * n_nodes
        self._acounters = ArrayCounters(n_nodes)

        # One tolerance per edge: the centralised tagger counts them, so
        # later rewires only have to report each edge they add or remove.
        tolerances: dict[int, list[float]] = {i: [] for i in setup.traces}
        for graph, _root, item_ids in self._reconfig.trees:
            for item_id in item_ids:
                initial = setup.traces[item_id].initial_value
                for node in graph.nodes:
                    for child, c in graph.children_for_item(node, item_id):
                        self._connect(node, child, item_id, c, initial)
                        tolerances[item_id].append(c)
        if self._centralized:
            self._tagger = StaircaseTagger()
            for item_id, trace in setup.traces.items():
                self._tagger.add_item(
                    item_id, tolerances[item_id], trace.initial_value
                )

    def _group(self, node: int, item_id: int) -> int:
        """The edge group for ``(node, item_id)``, appended with no
        dependents when absent: the initial trees make one per pair that
        sends or receives, and a rebuild can wire pairs that did neither
        in the original graph (a late joiner, a relay acquiring a new
        item through augmentation)."""
        key = (node, item_id)
        gid = self._gid_of.get(key)
        if gid is None:
            gid = self._gid_of[key] = len(self._g_node)
            issrc = node == self._root_of[item_id]
            self._g_node.append(node)
            self._g_item.append(item_id)
            self._g_issrc.append(issrc)
            # A receiving pair's coherency, log and clients arrive with
            # the edge that serves it (_connect); a root has none.
            self._g_prc.append(0.0)
            self._g_log.append(None)
            self._g_clients.append(None)
            for column in (self._g_child_gid, self._g_cs, self._g_last, self._g_delay):
                column.append([])
            if issrc:
                self._root_gid[item_id] = gid
        return gid

    def _connect(
        self, parent: int, child: int, item_id: int, c: float, initial: float
    ) -> None:
        """Append ``child`` to all four columns of ``parent``'s group and
        point the child's group at the pair's current state: the receive
        coherency just changed and the delivery log may be new, and
        in-flight as well as future deliveries must see both."""
        gid = self._group(parent, item_id)
        child_gid = self._group(child, item_id)
        self._g_child_gid[gid].append(child_gid)
        self._g_cs[gid].append(quantise_tolerance(c) if self._centralized else c)
        self._g_last[gid].append(initial)
        self._g_delay[gid].append(self.setup.network.delay_s(parent, child))
        key = (child, item_id)
        self._g_prc[child_gid] = c
        self._g_log[child_gid] = self._deliveries.get(key)
        self._g_clients[child_gid] = self._client_stairs.get(key)

    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Drain the merged source/delivery timeline, then score.

        One loop: the source branch and the delivery branch fall through
        to the same edge-group step (the reference's ``_process_at_node``
        child loop over flat columns), and every column, tally and
        total it touches is a local.
        """
        schedule = self._begin_run()
        kernel = BatchKernel(schedule.times)
        heap, next_seq = kernel.heap, kernel.next_seq
        source_times = schedule.times.tolist()
        source_items = schedule.item_ids.tolist()
        source_values = schedule.values.tolist()
        rule = self._rule
        centralized = self._centralized
        keeps_last = not centralized
        examine = self._tagger.examine if centralized else None
        root_of, root_gid = self._root_of, self._root_gid
        node_of, item_of = self._g_node, self._g_item
        g_issrc, g_prc = self._g_issrc, self._g_prc
        g_child, g_cs = self._g_child_gid, self._g_cs
        g_last, g_delay = self._g_last, self._g_delay
        g_log, g_clients = self._g_log, self._g_clients
        busy, comp_delay = self._busy, self._comp_delay_s
        counters = self._acounters
        node_checks, node_messages = counters.node_checks, counters.node_messages
        source_messages = source_checks = 0
        deliveries = drops = client_checks = client_messages = 0
        observer = self.observer

        core = self._reconfig
        crashed, departed, down = core.crashed, core.departed, core.down_links
        loss_p = self._loss_probability
        loss_random = None if self._loss_rng is None else self._loss_rng.random
        # Only a lossy run or one with a failure schedule can drop a
        # message at the sender; every other run skips both tests.
        filtered = loss_random is not None or core.failures is not None
        partitioned, lost = [], []
        controls = deque(core.timeline(schedule.span))
        reconfigures = bool(controls)
        # Leaf landings.  A copy sent to a pair with no dependents is
        # applied where it is sent instead of travelling the heap, when
        # nothing can re-parent, crash or watch the pair while the copy
        # is in flight.  Exact, not approximate:
        #   1. a node's FIFO departures are non-decreasing, an edge's
        #      delay is one constant and float addition is monotone, so
        #      the arrivals on one edge come in push order -- the heap's
        #      own (time, seq) order -- and a pair has one parent;
        #   2. a leaf delivery writes only its own log, its own client
        #      staircase and commutative totals, so when it is applied
        #      relative to other pairs' events cannot show;
        #   3. the events left on the heap keep their relative
        #      (time, seq) order, and the drop tests and the push guard
        #      run at send time either way.
        lands = (
            not reconfigures and not crashed and not departed and observer is None
        )
        landed = 0

        def apply_controls(through: float) -> float:
            """Apply every control entry up to ``through``; return the
            next one's instant."""
            while controls and controls[0][0] <= through:
                core.apply(*controls.popleft())
            return controls[0][0] if controls else inf

        next_control = apply_controls(-inf)
        for unit in kernel.drain():
            if type(unit) is int:
                # A fresh source update; the static schedule index is
                # the update's stable trace id.
                update_id = unit
                t = source_times[unit]
                if next_control <= t:
                    # Same tie-break as the reference's event queue
                    # (control events are scheduled before everything
                    # else at run() start): an entry at t applies before
                    # the update or delivery at t.
                    next_control = apply_controls(t)
                item_id = source_items[unit]
                value = source_values[unit]
                if reconfigures:
                    # Keep the root's copy current for initial syncs and
                    # recovery resyncs (the reference's
                    # _on_source_update does this first).
                    self._source_value[item_id] = value
                # Only the centralised source examines (and may suppress)
                # an update; the other policies' at_source is a free
                # pass-through, reported to the observer all the same.
                decision = examine(item_id, value) if centralized else PASS_THROUGH
                if decision.checks:
                    source_checks += decision.checks
                    node_checks[root_of[item_id]] += decision.checks
                if observer is not None:
                    observer.on_source(
                        unit, item_id, t, root_of[item_id],
                        decision.checks, decision.disseminate,
                    )
                if not decision.disseminate:
                    continue
                tag = decision.tag
                gid = root_gid[item_id]
                if gid < 0:
                    continue
            else:
                # A delivery tuple: (time, seq, gid, value, tag,
                # update_id, sender node).
                t, _seq, gid, value, tag, update_id, src = unit
                if next_control <= t:
                    next_control = apply_controls(t)
                if crashed or departed:
                    node = node_of[gid]
                    if node in crashed or node in departed:
                        # The sender paid for the message, but the
                        # repository left (or crashed) while it was in
                        # flight: a drop.
                        drops += 1
                        if observer is not None:
                            observer.on_drop(
                                update_id, item_of[gid], t, src, node,
                                "departed" if node in departed else "crash",
                            )
                        continue
                deliveries += 1
                if observer is not None:
                    observer.on_deliver(update_id, item_of[gid], t, node_of[gid])
                log = g_log[gid]
                if log is not None:
                    log.append((t, value))
                clients = g_clients[gid]
                if clients is not None:
                    client_checks += len(clients.cs)
                    client_messages += clients.serve(value, g_prc[gid])

            # The edge-group step, shared by both branches.
            cs = g_cs[gid]
            if not cs:
                continue  # a leaf, like most groups
            last = g_last[gid]
            prc = g_prc[gid]
            node = node_of[gid]
            children = g_child[gid]
            delays = g_delay[gid]
            # FIFO station: each forwarded copy departs one computational
            # delay after the previous one, the first after the later of
            # now and the node's backlog -- the reference station's own
            # additions.
            backlog = busy[node]
            departure = t if t > backlog else backlog
            if observer is not None:
                self._observe_group(gid, update_id, t, value, tag, departure)
            sent = 0
            for i, c in enumerate(cs):
                if rule(value, last[i], c, prc, tag):
                    if keeps_last:
                        last[i] = value
                    departure += comp_delay
                    sent += 1
                    if filtered:
                        # The reference child loop's order: a down link eats
                        # the message before the Bernoulli draw, so the
                        # loss stream is consumed only for messages that
                        # enter the network.
                        child = node_of[children[i]]
                        if down and (node, child) in down:
                            partitioned.append(child)
                            continue
                        if loss_random is not None and loss_random() < loss_p:
                            lost.append(child)
                            continue
                    arrival = departure + delays[i]
                    if not arrival >= t:  # BatchKernel.push's guard
                        raise SimulationError(
                            f"cannot schedule at {arrival!r}: clock is already at {t!r}"
                        )
                    child_gid = children[i]
                    if lands and not g_cs[child_gid]:
                        # The delivery branch's bookkeeping, at `arrival`.
                        landed += 1
                        log = g_log[child_gid]
                        if log is not None:
                            log.append((arrival, value))
                        clients = g_clients[child_gid]
                        if clients is not None:
                            client_checks += len(clients.cs)
                            client_messages += clients.serve(value, g_prc[child_gid])
                    else:
                        heappush(
                            heap,
                            (arrival, next_seq(), child_gid, value, tag, update_id, node),
                        )
            n = len(cs)
            node_checks[node] += n
            if g_issrc[gid]:
                source_checks += n
                source_messages += sent
            if sent:
                busy[node] = departure
                node_messages[node] += sent
                if partitioned or lost:
                    # Dropped at the sender, which already paid for them.
                    drops += len(partitioned) + len(lost)
                    if observer is not None:
                        for cohort, reason in (
                            (partitioned, "partition"), (lost, "loss")
                        ):
                            for child in cohort:
                                observer.on_drop(
                                    update_id, item_of[gid], t, node, child, reason
                                )
                    partitioned, lost = [], []
        # Entries past the last unit still close/open scoring segments
        # and count ticks; the reference runs them too.
        apply_controls(inf)
        counters.source_messages = source_messages
        counters.source_checks = source_checks
        counters.deliveries = deliveries + landed
        counters.drops = drops
        counters.client_checks = client_checks
        counters.client_messages = client_messages
        # The core charged reconfiguration and resync cost into
        # self.counters; everything else was tallied here.
        # The two are disjoint, so a merge is the union.
        self.counters.merge(counters.to_cost_counters())
        # The reference runs each control-timeline entry and each
        # delivery as one discrete event; here the controls were applied
        # inline and the leaf landings at their push sites, so both are
        # added back to keep the result field bit-identical.
        return self._score(
            schedule.span, kernel.events_processed + core.applied + landed
        )

    def _observe_group(
        self, gid: int, update_id: int, t: float, value: float, tag, departure: float
    ) -> None:
        """Tell the observer what the edge-group step is about to do.

        The rules are pure, so evaluated before any last-sent value
        moves they give the step's own decisions; the latencies repeat
        its additions from ``departure``, the station's first free instant.
        """
        node_of, observer = self._g_node, self.observer
        node, item_id = node_of[gid], self._g_item[gid]
        children = [node_of[g] for g in self._g_child_gid[gid]]
        rule, prc, is_source = self._rule, self._g_prc[gid], self._g_issrc[gid]
        fired = []
        for child, sent, c in zip(children, self._g_last[gid], self._g_cs[gid]):
            forward = rule(value, sent, c, prc, tag)
            fired.append(forward)
            observer.on_check(update_id, item_id, t, node, child, 1, forward, is_source)
        for child, delay, forward in zip(children, self._g_delay[gid], fired):
            if forward:
                departure += self._comp_delay_s
                observer.on_forward(
                    update_id, item_id, t, node, child, departure + delay - t
                )

    # ------------------------------------------------------------------
    # Edge-store port: the same surgery on the edge-group columns.
    # ------------------------------------------------------------------

    def message_counts(self) -> dict[int, int]:
        # The exact dict the reference's CostCounters.per_node_messages
        # holds at the same event boundary (order is irrelevant to the
        # drift estimator).
        return self._acounters.message_counts()

    def unwire(self, parent: int, child: int, item_id: int, c: float) -> None:
        gid = self._gid_of[(parent, item_id)]
        try:
            i = self._g_child_gid[gid].index(self._gid_of[(child, item_id)])
        except ValueError:
            raise SimulationError(
                f"edge group for node {parent} holds no dependent for "
                f"node {child}, item {item_id}"
            ) from None
        for column in (self._g_child_gid, self._g_cs, self._g_last, self._g_delay):
            del column[gid][i]
        if self._centralized:
            self._tagger.remove_tolerance(item_id, c)

    def unsubscribe(self, node: int, item_id: int) -> None:
        # In-flight deliveries still append to the kept log, but nobody
        # is served from the pair any more: unhook the client plane
        # until a later rewire restores the subscription.
        self._g_clients[self._gid_of[(node, item_id)]] = None

    def wire(
        self, parent: int, child: int, item_id: int, c: float, initial: float
    ) -> None:
        self._connect(parent, child, item_id, c, initial)
        if self._centralized:
            self._tagger.add_tolerance(item_id, c, initial)


def make_simulation(setup: SimulationSetup, observer=None) -> SimulationBase:
    """Instantiate the engine for ``setup``.

    There is one engine (:class:`VectorizedSimulation`) and one
    reference (:mod:`repro.engine.oracle`, the per-event oracle the
    golden suite compares against).  ``kernel="auto"`` and
    ``kernel="vectorized"`` both mean the engine; ``kernel="scalar"``
    runs the reference instead, for debugging.  The two are
    bit-identical on every run, and the engine is faster at every
    edge-group width the repo can produce, so nothing selects between
    them.  ``paper`` preset with 300-sample traces, seconds per
    run against the offered degree (the last column is no cooperation
    at 1000 repositories, 4 items, 200 samples -- the widest source
    groups the repo produces):

    =================  ====  ====  ====  ====  ====  ====
    offered degree        4     8    16    32   100  1000
    widest edge group     4     8    16    28    61   533
    =================  ====  ====  ====  ====  ====  ====
    engine             0.16  0.15  0.12  0.12  0.07  0.18
    reference          0.68  0.69  0.57  0.59  0.53  0.88
    =================  ====  ====  ====  ====  ====  ====

    A delivery to an edge group with no dependents lands at its push
    site and never sees the heap, so the flatter the tree the less of a
    run is event handling: 50 / 60 / 74 / 65 / 98 / 100 % of the groups
    are such leaves in the six columns (all but the source's at no
    cooperation, where the heap stays empty).

    ``observer`` (e.g. a :class:`repro.obs.trace.TraceRecorder`) is
    attached out-of-band; it records trace spans without perturbing the
    run.
    """
    if setup.config.kernel == "scalar":
        # Imported here: the oracle module builds on this one's base.
        from repro.engine.oracle import DisseminationSimulation

        return DisseminationSimulation(setup, observer=observer)
    return VectorizedSimulation(setup, observer=observer)


def run_simulation(
    config: SimulationConfig,
    setup: SimulationSetup | None = None,
    base: SimulationSetup | None = None,
    observer=None,
) -> SimulationResult:
    """Build (or reuse) a setup and run one simulation end to end.

    Args:
        config: The run's full parameterisation.
        setup: Optional prebuilt setup for exactly this config; used as
            is, without rebuilding anything.
        base: Optional setup from an earlier config in a sweep; pieces
            unaffected by the config delta (network, traces, interests)
            are recycled from it.
        observer: Optional out-of-band trace observer (see
            :mod:`repro.obs.trace`); attaching one never changes the
            result.
    """
    if setup is None:
        setup = build_setup(config, base=base)
    return make_simulation(setup, observer=observer).run()
