"""The vectorized array-backed dissemination engine.

Same simulation, different data layout.  The scalar engine
(:class:`~repro.engine.simulation.DisseminationSimulation`) walks one
Python object per message and one dict lookup per dependent; this engine
regroups the run into struct-of-arrays form so every hot-path step is a
handful of numpy calls over *all* dependents of an edge group at once:

- **Edge groups.**  Each (node, item) pair that sends or receives
  becomes one integer group id.  A group stores its dependents as
  parallel arrays -- child group ids, serving tolerances (quantised for
  the centralised policy, exactly as the scalar policy stores them),
  per-edge last-sent values, and precomputed end-to-end delays -- plus
  the scalars the decision needs (the node's own receive coherency,
  whether it is the source).
- **Decisions.**  One update against a group evaluates Eq. (3)/Eq. (7),
  the Eq. (3)-only test, the flooding distinct-value test, or the
  centralised tag cover over the whole dependent array via the
  ``*_many`` mirrors in :mod:`repro.core.dissemination.filtering` --
  elementwise bit-identical to the scalar functions.
- **Queueing.**  The FIFO station's chained ``busy_until`` additions
  become one ``cumsum`` whose first element carries the start offset;
  sequential accumulation reproduces the scalar chain bit for bit.
- **Events.**  A :class:`~repro.sim.kernel.BatchKernel` merges the
  precomputed source timeline with a tuple heap of in-flight
  deliveries -- no per-message Event objects, no callback dispatch.
- **Counters.**  :class:`~repro.core.metrics.ArrayCounters` accumulates
  per-node tallies in dense arrays, folded into
  :class:`~repro.core.metrics.CostCounters` once at the end.

The scalar engine stays the **oracle**: this class subclasses it, builds
its arrays from the scalar preparation (children maps, receive
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
the Bernoulli loss stream is consumed, and this class overrides the
edge-store port to patch the edge-group arrays -- groups that exist
only in a rebuilt graph are materialised on first use.

Not supported here -- the factory
(:func:`~repro.engine.simulation.make_simulation`) falls back to the
scalar engine for policies outside the four push policies.
"""

from __future__ import annotations

import numpy as np

from repro.core.dissemination import DisseminationPolicy
from repro.core.dissemination.filtering import (
    FILTERED_POLICIES,
    ArraySourceTagger,
    forward_centralized_many,
    forward_distributed_many,
    forward_eq3_only_many,
    forward_flooding_many,
    quantise_tolerance,
)
from repro.core.metrics import ArrayCounters
from repro.engine.builder import SimulationSetup
from repro.engine.results import SimulationResult
from repro.engine.simulation import DisseminationSimulation
from repro.errors import ConfigurationError, SimulationError
from repro.sim.kernel import BatchKernel

__all__ = ["VectorizedSimulation"]

# Branch-free-ish policy dispatch for the hot loop.
_DISTRIBUTED, _EQ3_ONLY, _FLOODING, _CENTRALIZED = range(4)
_POLICY_KIND = {
    "distributed": _DISTRIBUTED,
    "eq3_only": _EQ3_ONLY,
    "flooding": _FLOODING,
    "centralized": _CENTRALIZED,
}


class VectorizedSimulation(DisseminationSimulation):
    """Array-backed engine, bit-identical to the scalar oracle."""

    def __init__(
        self,
        setup: SimulationSetup,
        policy: DisseminationPolicy | None = None,
        observer=None,
    ):
        super().__init__(setup, policy, observer=observer)
        name = getattr(self.policy, "name", None)
        if name not in FILTERED_POLICIES:
            raise ConfigurationError(
                f"VectorizedSimulation supports policies {list(FILTERED_POLICIES)}, "
                f"got {name!r}"
            )
        self._policy_kind = _POLICY_KIND[name]
        self._batch_kernel: BatchKernel | None = None
        self._build_arrays()

    # ------------------------------------------------------------------

    def _build_arrays(self) -> None:
        """Regroup the scalar preparation into struct-of-arrays form."""
        setup = self.setup
        network = setup.network
        centralized = self._policy_kind == _CENTRALIZED

        # One group per (node, item) that sends and/or receives; senders
        # first so the source groups get low ids, then pure receivers.
        gid_of: dict[tuple[int, int], int] = {}
        for key in self._children:
            gid_of[key] = len(gid_of)
        for key in self._receive_c:
            if key not in gid_of:
                gid_of[key] = len(gid_of)
        self._gid_of = gid_of

        n = len(gid_of)
        self._g_node: list[int] = [0] * n
        self._g_item: list[int] = [0] * n
        self._g_issrc: list[bool] = [False] * n
        self._g_prc: list[float] = [0.0] * n
        self._g_child_gid: list[np.ndarray] = [None] * n  # type: ignore[list-item]
        self._g_cs: list[np.ndarray] = [None] * n  # type: ignore[list-item]
        self._g_last: list[np.ndarray] = [None] * n  # type: ignore[list-item]
        self._g_delay: list[np.ndarray] = [None] * n  # type: ignore[list-item]
        self._g_log: list[list | None] = [None] * n
        self._g_ctol: list[np.ndarray | None] = [None] * n
        self._g_clast: list[np.ndarray | None] = [None] * n

        empty_i = np.empty(0, dtype=np.int64)
        empty_f = np.empty(0)
        for key, gid in gid_of.items():
            node, item_id = key
            initial = setup.traces[item_id].initial_value
            children = self._children.get(key)
            if children:
                try:
                    child_gids = np.array(
                        [gid_of[(child, item_id)] for child, _c in children],
                        dtype=np.int64,
                    )
                except KeyError as exc:
                    raise SimulationError(
                        f"child group missing for edge from node {node}, "
                        f"item {item_id}: {exc}"
                    ) from None
                cs = np.array(
                    [
                        quantise_tolerance(c) if centralized else c
                        for _child, c in children
                    ]
                )
                delays = np.array(
                    [network.delay_s(node, child) for child, _c in children]
                )
                last = np.full(len(children), initial)
            else:
                child_gids, cs, delays, last = empty_i, empty_f, empty_f, empty_f
            self._g_node[gid] = node
            self._g_item[gid] = item_id
            self._g_issrc[gid] = node == self._root_of[item_id]
            self._g_prc[gid] = (
                0.0 if self._g_issrc[gid] else self._receive_c[key]
            )
            self._g_child_gid[gid] = child_gids
            self._g_cs[gid] = cs
            self._g_delay[gid] = delays
            self._g_last[gid] = last
            self._g_log[gid] = self._deliveries.get(key)
            self._g_ctol[gid] = self._client_tols.get(key)
            self._g_clast[gid] = self._client_last.get(key)

        self._root_gid: dict[int, int] = {
            item_id: gid_of.get((self._root_of[item_id], item_id), -1)
            for item_id in setup.traces
        }
        # Dense per-node arrays cover the whole topology: churn can wire
        # repositories the initial graph never held.
        n_nodes = setup.network.topology.n_nodes
        self._busy = np.zeros(n_nodes)
        self._acounters = ArrayCounters(n_nodes)

        if centralized:
            # One tolerance per edge: the tagger counts them, so later
            # rewires only have to report each edge they add or remove.
            tolerances: dict[int, list[float]] = {i: [] for i in setup.traces}
            for (_node, item_id), children in self._children.items():
                tolerances[item_id].extend(c for _child, c in children)
            self._tagger = ArraySourceTagger()
            for item_id, trace in setup.traces.items():
                self._tagger.add_item(
                    item_id, tolerances[item_id], trace.initial_value
                )

    # ------------------------------------------------------------------

    def _process_group(
        self, gid: int, t: float, value: float, tag, update_id: int = -1
    ) -> None:
        """Decide, queue and dispatch one update against one edge group.

        The vectorized mirror of the scalar ``_process_at_node`` child
        loop: one decision call over all dependents, one ``cumsum`` for
        the FIFO departures, one batched loss draw, then tuple pushes.
        Span emission is batched too -- one observer call per decision
        stage, never per child.
        """
        cs = self._g_cs[gid]
        n_children = cs.size
        if not n_children:
            return
        kind = self._policy_kind
        last = self._g_last[gid]
        if kind == _DISTRIBUTED:
            mask = forward_distributed_many(value, last, cs, self._g_prc[gid])
        elif kind == _EQ3_ONLY:
            mask = forward_eq3_only_many(value, last, cs)
        elif kind == _FLOODING:
            mask = forward_flooding_many(value, last)
        else:
            mask = forward_centralized_many(cs, tag)
        node = self._g_node[gid]
        is_source = self._g_issrc[gid]
        counters = self._acounters
        counters.record_checks(node, is_source, n_children)
        observer = self.observer
        if observer is not None:
            node_of = self._g_node
            observer.on_check_batch(
                update_id, self._g_item[gid], t, node,
                [node_of[g] for g in self._g_child_gid[gid].tolist()],
                mask.tolist(), is_source,
            )
        n_forward = int(np.count_nonzero(mask))
        if not n_forward:
            return
        if kind != _CENTRALIZED:
            last[mask] = value

        # FIFO station: the scalar engine chains busy_until additions one
        # submit at a time; cumsum with the start folded into the first
        # element reproduces that chain bit for bit.
        busy = self._busy
        backlog = busy[node]
        start = t if t > backlog else backlog
        departures = np.full(n_forward, self._comp_delay_s)
        departures[0] = start + self._comp_delay_s
        np.cumsum(departures, out=departures)
        busy[node] = departures[-1]
        counters.record_messages(node, is_source, n_forward)

        arrivals = departures + self._g_delay[gid][mask]
        targets = self._g_child_gid[gid][mask]
        if observer is not None:
            observer.on_forward_batch(
                update_id, self._g_item[gid], t, node,
                [node_of[g] for g in targets.tolist()],
                (arrivals - t).tolist(),
            )
        if self._down_links:
            # Partition filter before the loss draw: the Bernoulli
            # stream is only consumed for messages that actually enter
            # the network, exactly like the scalar child loop.
            down = self._down_links
            node_of = self._g_node
            kept_link = np.fromiter(
                ((node, node_of[target]) not in down for target in targets.tolist()),
                dtype=bool,
                count=targets.size,
            )
            n_link_dropped = targets.size - int(np.count_nonzero(kept_link))
            if n_link_dropped:
                counters.drops += n_link_dropped
                if observer is not None:
                    observer.on_drop_batch(
                        update_id, self._g_item[gid], t, node,
                        [node_of[g] for g in targets[~kept_link].tolist()],
                        "partition",
                    )
                arrivals = arrivals[kept_link]
                targets = targets[kept_link]
        if self._loss_rng is not None and targets.size:
            # Same stream, same order: one batched draw consumes the
            # generator exactly like the scalar per-message draws.
            kept = self._loss_rng.random(targets.size) >= self._loss_probability
            dropped = int(targets.size) - int(np.count_nonzero(kept))
            if dropped:
                counters.drops += dropped
                if observer is not None:
                    observer.on_drop_batch(
                        update_id, self._g_item[gid], t, node,
                        [self._g_node[g] for g in targets[~kept].tolist()],
                        "loss",
                    )
                arrivals = arrivals[kept]
                targets = targets[kept]
        push = self._batch_kernel.push
        for arrival, target in zip(arrivals.tolist(), targets.tolist()):
            push(arrival, target, value, tag, update_id, node)

    def run(self) -> SimulationResult:
        """Drain the merged source/delivery timeline, then score."""
        schedule = self._update_schedule()
        kernel = BatchKernel(schedule.times)
        self._batch_kernel = kernel
        source_times = schedule.times.tolist()
        source_items = schedule.item_ids.tolist()
        source_values = schedule.values.tolist()
        centralized = self._policy_kind == _CENTRALIZED
        root_gid = self._root_gid
        counters = self._acounters
        observer = self.observer
        core = self._reconfig
        crashed, departed = core.crashed, core.departed
        timeline = core.timeline(schedule.span)
        ci, nc = 0, len(timeline)
        for unit in kernel.drain():
            if ci < nc:
                # Same tie-break as the scalar event queue (control
                # events are scheduled before everything else at run()
                # start): an entry at t applies before the update or
                # delivery at t.
                t_unit = source_times[unit] if type(unit) is int else unit[0]
                while ci < nc and timeline[ci][0] <= t_unit:
                    core.apply(*timeline[ci])
                    ci += 1
            if type(unit) is int:
                # A fresh source update; the static schedule index is
                # the update's stable trace id.
                item_id = source_items[unit]
                value = source_values[unit]
                if nc:
                    # Keep the root's copy current for initial syncs and
                    # recovery resyncs (the scalar _on_source_update does
                    # this first).
                    self._source_value[item_id] = value
                if centralized:
                    decision = self._tagger.examine(item_id, value)
                    if decision.checks:
                        counters.record_checks(
                            self._root_of[item_id], True, decision.checks
                        )
                    if observer is not None:
                        observer.on_source(
                            unit, item_id, source_times[unit],
                            self._root_of[item_id],
                            decision.checks, decision.disseminate,
                        )
                    if not decision.disseminate:
                        continue
                    tag = decision.tag
                else:
                    # The push policies' at_source is a free pass-through
                    # (no checks, always disseminate) -- mirror the
                    # scalar engine's span for it.
                    if observer is not None:
                        observer.on_source(
                            unit, item_id, source_times[unit],
                            self._root_of[item_id], 0, True,
                        )
                    tag = None
                gid = root_gid[item_id]
                if gid >= 0:
                    self._process_group(gid, source_times[unit], value, tag, unit)
            else:
                # A delivery tuple: (time, seq, gid, value, tag,
                # update_id, sender node).
                t, _seq, gid, value, tag, update_id, src = unit
                if crashed or departed:
                    node = self._g_node[gid]
                    if node in crashed or node in departed:
                        # The sender paid for the message, but the
                        # repository left (or crashed) while it was in
                        # flight: a drop.
                        counters.drops += 1
                        if observer is not None:
                            observer.on_drop(
                                update_id, self._g_item[gid], t, src, node,
                                "departed" if node in departed else "crash",
                            )
                        continue
                counters.deliveries += 1
                if observer is not None:
                    observer.on_deliver(
                        update_id, self._g_item[gid], t, self._g_node[gid]
                    )
                log = self._g_log[gid]
                if log is not None:
                    log.append((t, value))
                tols = self._g_ctol[gid]
                if tols is not None:
                    clast = self._g_clast[gid]
                    mask = forward_distributed_many(
                        value, clast, tols, self._g_prc[gid]
                    )
                    served = int(np.count_nonzero(mask))
                    if served:
                        clast[mask] = value
                    counters.client_checks += int(tols.size)
                    counters.client_messages += served
                self._process_group(gid, t, value, tag, update_id)
        while ci < nc:
            # Entries past the last unit still close/open scoring
            # segments and count ticks; the scalar kernel runs them too.
            core.apply(*timeline[ci])
            ci += 1
        # The core charged reconfiguration and resync cost into the
        # scalar-side CostCounters; everything else was tallied in the
        # arrays.  The two are disjoint, so a merge is the union.
        self.counters.merge(counters.to_cost_counters())
        return self._score(schedule.span)

    # ------------------------------------------------------------------
    # Edge-store port: the same surgery on the edge-group arrays.  The
    # scalar tables this class was built from (children maps, the policy
    # object) are construction inputs only and are not kept current.
    # ------------------------------------------------------------------

    def message_counts(self) -> dict[int, int]:
        """Sparsify the dense per-node message tallies into the exact
        dict the scalar ``CostCounters.per_node_messages`` holds at the
        same event boundary (all-positive entries; order is irrelevant
        to the drift estimator)."""
        node_messages = self._acounters.node_messages
        return {
            int(node): int(node_messages[node])
            for node in np.nonzero(node_messages)[0]
        }

    def _ensure_group(self, node: int, item_id: int) -> int:
        """The edge group for ``(node, item_id)``, created if absent.

        Rebuilds can wire pairs that never sent or received in the
        original graph (a late joiner, a relay acquiring a new item
        through augmentation); such groups start empty and pick up the
        pair's state (delivery log, receive coherency, client plane) by
        reference.
        """
        key = (node, item_id)
        gid = self._gid_of.get(key)
        if gid is not None:
            return gid
        gid = len(self._gid_of)
        self._gid_of[key] = gid
        issrc = node == self._root_of[item_id]
        self._g_node.append(node)
        self._g_item.append(item_id)
        self._g_issrc.append(issrc)
        self._g_prc.append(0.0 if issrc else self._receive_c.get(key, 0.0))
        self._g_child_gid.append(np.empty(0, dtype=np.int64))
        self._g_cs.append(np.empty(0))
        self._g_last.append(np.empty(0))
        self._g_delay.append(np.empty(0))
        self._g_log.append(self._deliveries.get(key))
        self._g_ctol.append(self._client_tols.get(key))
        self._g_clast.append(self._client_last.get(key))
        if issrc:
            self._root_gid[item_id] = gid
        return gid

    def unwire(self, parent: int, child: int, item_id: int, c: float) -> None:
        gid = self._gid_of[(parent, item_id)]
        hits = np.nonzero(self._g_child_gid[gid] == self._gid_of[(child, item_id)])[0]
        if not hits.size:
            raise SimulationError(
                f"edge group for node {parent} holds no dependent for "
                f"node {child}, item {item_id}"
            )
        i = int(hits[0])
        for column in (self._g_child_gid, self._g_cs, self._g_last, self._g_delay):
            column[gid] = np.delete(column[gid], i)
        if self._policy_kind == _CENTRALIZED:
            self._tagger.remove_tolerance(item_id, c)

    def unsubscribe(self, node: int, item_id: int) -> None:
        # In-flight deliveries still append to the kept log, but nobody
        # is served from the pair any more -- mirror the scalar
        # _serve_clients early-return by unhooking the client plane
        # until a later rewire restores the subscription.
        super().unsubscribe(node, item_id)
        gid = self._gid_of[(node, item_id)]
        self._g_ctol[gid] = None
        self._g_clast[gid] = None

    def wire(
        self, parent: int, child: int, item_id: int, c: float, initial: float
    ) -> None:
        key = (child, item_id)
        self._receive_c[key] = c
        gid = self._ensure_group(parent, item_id)
        child_gid = self._ensure_group(child, item_id)
        centralized = self._policy_kind == _CENTRALIZED
        for column, entry in (
            (self._g_child_gid, np.int64(child_gid)),
            (self._g_cs, quantise_tolerance(c) if centralized else c),
            (self._g_last, initial),
            (self._g_delay, self.setup.network.delay_s(parent, child)),
        ):
            column[gid] = np.append(column[gid], entry)
        # The pair's receive coherency just changed and its delivery log
        # may be new: refresh the group's scalars so in-flight and
        # future deliveries see current state.
        self._g_prc[child_gid] = c
        self._g_log[child_gid] = self._deliveries.get(key)
        self._g_ctol[child_gid] = self._client_tols.get(key)
        self._g_clast[child_gid] = self._client_last.get(key)
        if centralized:
            self._tagger.add_tolerance(item_id, c, initial)

    def _events_processed(self) -> int:
        if self._batch_kernel is None:
            return 0
        # The scalar kernel schedules each control-timeline entry as one
        # discrete event; the batch drain applies them inline, so they
        # are added back here to keep the result field bit-identical.
        return self._batch_kernel.events_processed + self._reconfig.applied
