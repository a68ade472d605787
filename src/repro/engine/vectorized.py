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
- **Decisions.**  One update against a group is one comprehension over
  its columns calling the pure scalar functions of
  :mod:`repro.core.dissemination.filtering` -- the very functions the
  scalar policies and the live nodes call.
- **Queueing.**  The FIFO station's chained ``busy_until`` additions are
  the same chain of float additions, on a per-node list.
- **Events.**  A :class:`~repro.sim.kernel.BatchKernel` merges the
  precomputed source timeline with a tuple heap of in-flight
  deliveries -- no per-message Event objects, no callback dispatch.
- **Counters.**  :class:`~repro.core.metrics.ArrayCounters` accumulates
  per-node tallies in flat lists, folded into
  :class:`~repro.core.metrics.CostCounters` once at the end.

What is genuinely wide stays numpy: the modeled-client plane (one
:func:`~repro.core.dissemination.filtering.forward_distributed_many`
call over a pair's whole client block per delivery), the batched
message-loss draw, the :class:`~repro.traces.schedule.UpdateSchedule`
arrays and the centralised source's
:class:`~repro.core.dissemination.filtering.ArraySourceTagger`.

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
the Bernoulli loss stream is consumed, and this class overrides the
edge-store port to patch the edge-group columns -- groups that exist
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
    forward_centralized,
    forward_distributed,
    forward_distributed_many,
    forward_eq3_only,
    forward_flooding,
    quantise_tolerance,
)
from repro.core.metrics import ArrayCounters
from repro.engine.builder import SimulationSetup
from repro.engine.results import SimulationResult
from repro.engine.simulation import DisseminationSimulation
from repro.errors import ConfigurationError, SimulationError
from repro.sim.kernel import BatchKernel

__all__ = ["VectorizedSimulation"]


def _mask_distributed(value, last, cs, parent_receive_c, tag):
    return [
        forward_distributed(value, sent, c, parent_receive_c)
        for sent, c in zip(last, cs)
    ]


def _mask_eq3_only(value, last, cs, parent_receive_c, tag):
    return [forward_eq3_only(value, sent, c) for sent, c in zip(last, cs)]


def _mask_flooding(value, last, cs, parent_receive_c, tag):
    return [forward_flooding(value, sent) for sent in last]


def _mask_centralized(value, last, cs, parent_receive_c, tag):
    return [forward_centralized(c, tag) for c in cs]


# One update against one edge group's columns -> one forward flag per
# dependent.  A uniform signature, so ``__init__`` binds the policy's
# entry once and the hot loop never branches on the policy.
_MASK_OF = {
    "distributed": _mask_distributed,
    "eq3_only": _mask_eq3_only,
    "flooding": _mask_flooding,
    "centralized": _mask_centralized,
}


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
        if name not in FILTERED_POLICIES:
            raise ConfigurationError(
                f"VectorizedSimulation supports policies {list(FILTERED_POLICIES)}, "
                f"got {name!r}"
            )
        self._mask = _MASK_OF[name]
        # The centralised policy serves at quantised tolerances, keeps no
        # per-edge last-sent state, and examines updates at the source.
        self._centralized = name == "centralized"
        self._batch_kernel: BatchKernel | None = None
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
        self._g_ctol: list[np.ndarray | None] = []
        self._g_clast: list[np.ndarray | None] = []
        self._root_gid: dict[int, int] = {item_id: -1 for item_id in setup.traces}

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
            self._tagger = ArraySourceTagger()
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
        self._g_ctol.append(self._client_tols.get(key))
        self._g_clast.append(self._client_last.get(key))
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

    def _process_group(
        self, gid: int, t: float, value: float, tag, update_id: int = -1
    ) -> None:
        """Decide, queue and dispatch one update against one edge group
        (one with dependents: the drain loop skips the leaves).

        The scalar ``_process_at_node`` child loop over flat columns:
        one decision per dependent, the FIFO station's chain of
        departures, one batched loss draw, then tuple pushes.  Span
        emission is batched -- one observer call per decision stage,
        never per child.
        """
        cs = self._g_cs[gid]
        last = self._g_last[gid]
        mask = self._mask(value, last, cs, self._g_prc[gid], tag)
        node = self._g_node[gid]
        is_source = self._g_issrc[gid]
        counters = self._acounters
        counters.record_checks(node, is_source, len(cs))
        child_gids = self._g_child_gid[gid]
        node_of = self._g_node
        observer = self.observer
        if observer is not None:
            observer.on_check_batch(
                update_id, self._g_item[gid], t, node,
                [node_of[g] for g in child_gids], mask, is_source,
            )
        if True not in mask:
            return

        # FIFO station: each forwarded copy departs one computational
        # delay after the previous one, the first after the later of now
        # and the node's backlog -- FifoStation.submit's own additions.
        comp_delay = self._comp_delay_s
        delays = self._g_delay[gid]
        keeps_last = not self._centralized
        backlog = self._busy[node]
        departure = t if t > backlog else backlog
        arrivals: list[float] = []
        targets: list[int] = []
        for i, forward in enumerate(mask):
            if forward:
                if keeps_last:
                    last[i] = value
                departure += comp_delay
                arrivals.append(departure + delays[i])
                targets.append(child_gids[i])
        self._busy[node] = departure
        counters.record_messages(node, is_source, len(targets))
        if observer is not None:
            observer.on_forward_batch(
                update_id, self._g_item[gid], t, node,
                [node_of[g] for g in targets],
                [arrival - t for arrival in arrivals],
            )
        if self._down_links:
            # Partition filter before the loss draw: the Bernoulli
            # stream is only consumed for messages that actually enter
            # the network, exactly like the scalar child loop.
            down = self._down_links
            arrivals, targets = self._drop_unkept(
                [(node, node_of[g]) not in down for g in targets],
                arrivals, targets, "partition", update_id, gid, t,
            )
        if self._loss_rng is not None and targets:
            # Same stream, same order: one batched draw consumes the
            # generator exactly like the scalar per-message draws.
            kept = self._loss_rng.random(len(targets)) >= self._loss_probability
            arrivals, targets = self._drop_unkept(
                kept.tolist(), arrivals, targets, "loss", update_id, gid, t
            )
        push = self._batch_kernel.push
        for arrival, target in zip(arrivals, targets):
            push(arrival, target, value, tag, update_id, node)

    def _drop_unkept(
        self,
        kept: list[bool],
        arrivals: list[float],
        targets: list[int],
        reason: str,
        update_id: int,
        gid: int,
        t: float,
    ) -> tuple[list[float], list[int]]:
        """Count the messages ``kept`` flags False as drops (the sender
        already paid for them) and return the surviving cohort."""
        if False not in kept:
            return arrivals, targets
        self._acounters.drops += kept.count(False)
        if self.observer is not None:
            node_of = self._g_node
            self.observer.on_drop_batch(
                update_id, self._g_item[gid], t, node_of[gid],
                [node_of[g] for g, keep in zip(targets, kept) if not keep],
                reason,
            )
        return (
            [arrival for arrival, keep in zip(arrivals, kept) if keep],
            [target for target, keep in zip(targets, kept) if keep],
        )

    def run(self) -> SimulationResult:
        """Drain the merged source/delivery timeline, then score."""
        schedule = self._update_schedule()
        kernel = BatchKernel(schedule.times)
        self._batch_kernel = kernel
        source_times = schedule.times.tolist()
        source_items = schedule.item_ids.tolist()
        source_values = schedule.values.tolist()
        centralized = self._centralized
        root_gid = self._root_gid
        # Most groups are leaves; an empty column spares them the call.
        has_dependents = self._g_cs
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
                if gid >= 0 and has_dependents[gid]:
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
                if has_dependents[gid]:
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
        self._g_ctol[gid] = None
        self._g_clast[gid] = None

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
        self._g_ctol[child_gid] = self._client_tols.get(key)
        self._g_clast[child_gid] = self._client_last.get(key)
        if self._centralized:
            self._tagger.add_tolerance(item_id, c, initial)

    def _events_processed(self) -> int:
        if self._batch_kernel is None:
            return 0
        # The scalar kernel schedules each control-timeline entry as one
        # discrete event; the batch drain applies them inline, so they
        # are added back here to keep the result field bit-identical.
        return self._batch_kernel.events_processed + self._reconfig.applied
