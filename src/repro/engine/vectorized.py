"""The batch-kernel dissemination engine.

Same simulation, different data layout.  The scalar engine
(:class:`~repro.engine.simulation.DisseminationSimulation`) pays, per
message, one ``Event`` object, one callback dispatch, one policy-object
call with its dict lookups and a handful of ``CostCounters`` dict
updates.  This engine regroups the run so the hot path touches only
flat lists, tuples and ints:

- **Edge groups.**  Each (node, item) pair that sends or receives
  becomes one integer group id.  A group stores its dependents as four
  parallel *Python lists* -- child group ids, serving tolerances
  (quantised for the centralised policy, exactly as the scalar policy
  stores them), per-edge last-sent values, and precomputed end-to-end
  delays -- plus the scalars the decision needs (the node's own receive
  coherency, whether it is the source).  The paper's case for a small
  degree of cooperation makes a group 1-4 wide, where one numpy call
  costs ~20 scalar decisions; lists win or tie at every width the repo
  can produce (see ``docs/architecture/vectorized-kernel.md``).
- **One loop.**  :meth:`VectorizedSimulation.run` is the whole hot
  path: a source update and a delivery do their own bookkeeping and
  fall through to one inline *edge-group step*, a single pass over the
  group's columns that decides each dependent -- with the policy's entry
  in :data:`~repro.core.dissemination.filtering.FORWARD_RULES`, the very
  functions the scalar policies and the live nodes call -- chains the
  FIFO station's departures (``FifoStation.submit``'s own float
  additions, on a per-node list) and pushes each surviving message.
  Per event that leaves the kernel's generator resume and one rule call
  per dependent: 1.9 Python-level calls on the paper's base case.
- **Events.**  A :class:`~repro.sim.kernel.BatchKernel` merges the
  precomputed source timeline with a tuple heap of in-flight
  deliveries -- no per-message Event objects, no callback dispatch; the
  loop pushes onto the kernel's ``heap`` itself, ``push``'s NaN/past
  guard kept as one inline comparison.  A copy sent to a pair with *no
  dependents* never reaches the heap in a static, unobserved run: it
  *lands* at the push site (counted, logged, its clients served), which
  is exact because a pair's arrivals already come in push order and a
  leaf delivery touches nothing shared -- 43 % of the base case's
  deliveries, all of them at no cooperation.  They are added back into
  ``events_processed``, so the count stays the scalar kernel's.
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

The scalar engine stays the **oracle**: this class subclasses it, builds
its groups from the scalar preparation (children maps, receive
coherencies, delivery logs), reuses its scoring, and replaces the event
loop and the edge-store port.  ``tests/engine/test_vectorized_golden.py`` pins
bit-identical results (loss, per-pair losses, every counter field)
across policies and workloads.

Reconfiguration (churn, unplanned failures, adaptive re-optimization)
is the :class:`~repro.engine.reconfig.ReconfigurationCore`'s, exactly as
for the scalar engine: the drain loop applies the core's control
timeline inline, each entry before the unit at the same instant (the
tie-break the scalar event queue produces), arrivals at crashed or
departed repositories and sends over down links become drops before
the Bernoulli loss stream is consumed (one scalar draw per message that
enters the network, the oracle's own order), and this class overrides
the edge-store port to patch the edge-group columns -- groups that
exist only in a rebuilt graph are materialised on first use.

Not supported here -- the factory
(:func:`~repro.engine.simulation.make_simulation`) falls back to the
scalar engine for policies outside the four push policies.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from math import inf

from repro.core.dissemination import DisseminationPolicy
from repro.core.dissemination.base import SourceDecision
from repro.core.dissemination.filtering import (
    FORWARD_RULES,
    Staircase,
    StaircaseTagger,
    quantise_tolerance,
)
from repro.core.metrics import ArrayCounters
from repro.engine.builder import SimulationSetup
from repro.engine.results import SimulationResult
from repro.engine.simulation import DisseminationSimulation
from repro.errors import ConfigurationError, SimulationError
from repro.sim.kernel import BatchKernel

__all__ = ["VectorizedSimulation"]

_PASS_THROUGH = SourceDecision(disseminate=True, tag=None, checks=0)


class VectorizedSimulation(DisseminationSimulation):
    """Batch-kernel engine, bit-identical to the scalar oracle."""

    def __init__(
        self,
        setup: SimulationSetup,
        policy: DisseminationPolicy | None = None,
        observer=None,
    ):
        super().__init__(setup, policy, observer=observer)
        name = getattr(self.policy, "name", None)
        if name not in FORWARD_RULES:
            raise ConfigurationError(
                f"VectorizedSimulation supports policies {list(FORWARD_RULES)}, "
                f"got {name!r}"
            )
        self._rule = FORWARD_RULES[name]
        # The centralised policy serves at quantised tolerances, keeps no
        # per-edge last-sent state, and examines updates at the source.
        self._centralized = name == "centralized"
        self._build_groups()

    # ------------------------------------------------------------------

    def _build_groups(self) -> None:
        """Regroup the scalar preparation into edge groups."""
        setup = self.setup
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

        # One group per (node, item) that sends and/or receives; senders
        # first so the source groups get low ids, then pure receivers.
        for key in self._children:
            self._new_group(key)
        for key in self._receive_c:
            if key not in self._gid_of:
                self._new_group(key)
        for (node, item_id), children in self._children.items():
            gid = self._gid_of[(node, item_id)]
            initial = setup.traces[item_id].initial_value
            for child, c in children:
                child_gid = self._gid_of.get((child, item_id))
                if child_gid is None:
                    raise SimulationError(
                        f"child group missing for edge from node {node} to "
                        f"node {child}, item {item_id}"
                    )
                self._add_dependent(gid, child_gid, c, initial)

        # Dense per-node lists cover the whole topology: churn can wire
        # repositories the initial graph never held.
        n_nodes = setup.network.topology.n_nodes
        self._busy = [0.0] * n_nodes
        self._acounters = ArrayCounters(n_nodes)

        if self._centralized:
            # One tolerance per edge: the tagger counts them, so later
            # rewires only have to report each edge they add or remove.
            tolerances: dict[int, list[float]] = {i: [] for i in setup.traces}
            for (_node, item_id), children in self._children.items():
                tolerances[item_id].extend(c for _child, c in children)
            self._tagger = StaircaseTagger()
            for item_id, trace in setup.traces.items():
                self._tagger.add_item(
                    item_id, tolerances[item_id], trace.initial_value
                )

    def _new_group(self, key: tuple[int, int]) -> int:
        """Append an edge group with no dependents for ``key`` = (node,
        item); it picks up the pair's state (delivery log, receive
        coherency, client plane) by reference."""
        node, item_id = key
        gid = len(self._gid_of)
        self._gid_of[key] = gid
        issrc = node == self._root_of[item_id]
        self._g_node.append(node)
        self._g_item.append(item_id)
        self._g_issrc.append(issrc)
        self._g_prc.append(0.0 if issrc else self._receive_c.get(key, 0.0))
        self._g_child_gid.append([])
        self._g_cs.append([])
        self._g_last.append([])
        self._g_delay.append([])
        self._g_log.append(self._deliveries.get(key))
        self._g_clients.append(self._client_stairs.get(key))
        if issrc:
            self._root_gid[item_id] = gid
        return gid

    def _add_dependent(
        self, gid: int, child_gid: int, c: float, initial: float
    ) -> None:
        """Append one dependent to all four columns of group ``gid``."""
        self._g_child_gid[gid].append(child_gid)
        self._g_cs[gid].append(quantise_tolerance(c) if self._centralized else c)
        self._g_last[gid].append(initial)
        self._g_delay[gid].append(
            self.setup.network.delay_s(self._g_node[gid], self._g_node[child_gid])
        )

    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Drain the merged source/delivery timeline, then score.

        One loop: the source branch and the delivery branch fall through
        to the same edge-group step (the scalar ``_process_at_node``
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
                    # Same tie-break as the scalar event queue (control
                    # events are scheduled before everything else at
                    # run() start): an entry at t applies before the
                    # update or delivery at t.
                    next_control = apply_controls(t)
                item_id = source_items[unit]
                value = source_values[unit]
                if reconfigures:
                    # Keep the root's copy current for initial syncs and
                    # recovery resyncs (the scalar _on_source_update does
                    # this first).
                    self._source_value[item_id] = value
                # Only the centralised source examines (and may suppress)
                # an update; the other policies' at_source is a free
                # pass-through, reported to the observer all the same.
                decision = examine(item_id, value) if centralized else _PASS_THROUGH
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
            # now and the node's backlog -- FifoStation.submit's own
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
                        # The scalar child loop's order: a down link eats
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
                            if cohort:
                                observer.on_drop_batch(
                                    update_id, item_of[gid], t, node, cohort, reason
                                )
                    partitioned, lost = [], []
        # Entries past the last unit still close/open scoring segments
        # and count ticks; the scalar kernel runs them too.
        apply_controls(inf)
        counters.source_messages = source_messages
        counters.source_checks = source_checks
        counters.deliveries = deliveries + landed
        counters.drops = drops
        counters.client_checks = client_checks
        counters.client_messages = client_messages
        # The core charged reconfiguration and resync cost into the
        # scalar-side CostCounters; everything else was tallied here.
        # The two are disjoint, so a merge is the union.
        self.counters.merge(counters.to_cost_counters())
        # The scalar kernel runs each control-timeline entry and each
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
        node_of = self._g_node
        node, item_id = node_of[gid], self._g_item[gid]
        children = [node_of[g] for g in self._g_child_gid[gid]]
        rule, prc = self._rule, self._g_prc[gid]
        mask = [
            rule(value, sent, c, prc, tag)
            for sent, c in zip(self._g_last[gid], self._g_cs[gid])
        ]
        self.observer.on_check_batch(
            update_id, item_id, t, node, children, mask, self._g_issrc[gid]
        )
        targets, latencies = [], []
        for child, delay, forward in zip(children, self._g_delay[gid], mask):
            if forward:
                departure += self._comp_delay_s
                targets.append(child)
                latencies.append(departure + delay - t)
        if targets:
            self.observer.on_forward_batch(
                update_id, item_id, t, node, targets, latencies
            )

    # ------------------------------------------------------------------
    # Edge-store port: the same surgery on the edge-group columns.  The
    # scalar tables this class was built from (children maps, the policy
    # object) are construction inputs only and are not kept current.
    # ------------------------------------------------------------------

    def message_counts(self) -> dict[int, int]:
        # The exact dict the scalar CostCounters.per_node_messages holds
        # at the same event boundary (order is irrelevant to the drift
        # estimator).
        return self._acounters.message_counts()

    def _ensure_group(self, node: int, item_id: int) -> int:
        """The edge group for ``(node, item_id)``, created if absent.

        Rebuilds can wire pairs that never sent or received in the
        original graph (a late joiner, a relay acquiring a new item
        through augmentation); such groups start with no dependents.
        """
        gid = self._gid_of.get((node, item_id))
        return self._new_group((node, item_id)) if gid is None else gid

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
        # is served from the pair any more -- mirror the scalar
        # _serve_clients early-return by unhooking the client plane
        # until a later rewire restores the subscription.
        super().unsubscribe(node, item_id)
        gid = self._gid_of[(node, item_id)]
        self._g_clients[gid] = None

    def wire(
        self, parent: int, child: int, item_id: int, c: float, initial: float
    ) -> None:
        key = (child, item_id)
        self._receive_c[key] = c
        gid = self._ensure_group(parent, item_id)
        child_gid = self._ensure_group(child, item_id)
        self._add_dependent(gid, child_gid, c, initial)
        # The pair's receive coherency just changed and its delivery log
        # may be new: refresh the group's scalars so in-flight and
        # future deliveries see current state.
        self._g_prc[child_gid] = c
        self._g_log[child_gid] = self._deliveries.get(key)
        self._g_clients[child_gid] = self._client_stairs.get(key)
        if self._centralized:
            self._tagger.add_tolerance(item_id, c, initial)
