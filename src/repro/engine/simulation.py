"""The event-driven dissemination simulation.

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

Reconfiguration: when the config carries a
:class:`~repro.engine.churn.ChurnSchedule`, a
:class:`~repro.engine.failures.FailureSchedule` or an
:class:`~repro.engine.adaptive.AdaptivePolicy`, the run's control
instants execute inside the kernel, each before any update or delivery
at the same instant.  *What* they do -- membership diffs, failover to
the nearest live ancestor, resync of diverged copies, drift-triggered
rewires, the order edges are torn down and wired in, who initial-syncs
and who keeps its copy, what is charged -- is
:class:`~repro.engine.reconfig.ReconfigurationCore`'s business alone.
This engine is one of its edge stores: ``wire`` / ``unwire`` and
friends patch the dict tables and the policy object, nothing more.  On
the hot path the engine reads the core's ``crashed`` / ``departed`` /
``down_links`` sets (a message toward an unavailable repository or over
a down link is a drop) and at the end scores fidelity over the core's
availability segments.
"""

from __future__ import annotations

import numpy as np

from repro.core.dissemination import DisseminationPolicy, make_policy
from repro.core.dissemination.filtering import FILTERED_POLICIES, forward_distributed
from repro.core.fidelity import (
    FidelityAccumulator,
    scoring_windows,
    segmented_loss,
    unzip_log,
)
from repro.core.metrics import CostCounters
from repro.engine.builder import SimulationSetup, build_setup
from repro.engine.config import SimulationConfig
from repro.engine.reconfig import ReconfigurationCore
from repro.engine.results import SimulationResult
from repro.errors import ConfigurationError, SimulationError
from repro.sim.kernel import Simulator
from repro.sim.queueing import FifoStation
from repro.sim.rng import RandomStreams
from repro.traces.schedule import UpdateSchedule

__all__ = ["DisseminationSimulation", "make_simulation", "run_simulation"]


class DisseminationSimulation:
    """Drives one dissemination policy over one built setup."""

    def __init__(
        self,
        setup: SimulationSetup,
        policy: DisseminationPolicy | None = None,
        observer=None,
    ):
        self.setup = setup
        self.policy = policy if policy is not None else make_policy(setup.config.policy)
        # Out-of-band observability hook (repro.obs.trace.TraceRecorder
        # or compatible).  Never part of the config -- result-cache keys
        # and fingerprints are unaffected -- and consulted only behind
        # `is not None` guards, so an unobserved run does no extra work
        # and an observed run is bit-identical (the observer records
        # decisions; it never makes them).
        self.observer = observer
        self.kernel = Simulator()
        self.counters = CostCounters()
        self._ran = False
        self._comp_delay_s = setup.config.comp_delay_ms / 1000.0
        self._source = setup.source
        self._loss_probability = setup.config.message_loss_probability
        self._loss_rng = (
            RandomStreams(setup.config.seed).stream("message-loss")
            if self._loss_probability > 0.0
            else None
        )
        self._source_value: dict[int, float] = {}
        self._stations: dict[int, FifoStation] = {}
        # Per (node, item): list of (child, c_serve); precomputed for speed.
        self._children: dict[tuple[int, int], list[tuple[int, float]]] = {}
        self._receive_c: dict[tuple[int, int], float] = {}
        # Per (repo, item): delivery log [(time, value), ...].
        self._deliveries: dict[tuple[int, int], list[tuple[float, float]]] = {}
        # Modeled-client plane: per (repo, item), the clients' tolerance
        # array (read-only, the setup's own) and this run's mutable
        # last-served array, made on the pair's first delivery (the
        # batch engine keeps staircases instead and makes none).
        self._client_tols: dict[tuple[int, int], np.ndarray] = (
            getattr(setup, "client_tolerances", None) or {}
        )
        self._client_last: dict[tuple[int, int], np.ndarray] = {}
        # All control state and every reconfiguration rule live in the
        # core; this engine is its edge store.  The availability sets
        # are bound once (the core mutates them in place) so the hot
        # path pays one attribute lookup, as it always has.
        self._reconfig = ReconfigurationCore.for_setup(
            setup, self, self.counters, self._graphs()
        )
        self._reconfig.observer = observer
        self._departed = self._reconfig.departed
        self._crashed = self._reconfig.crashed
        self._down_links = self._reconfig.down_links
        self._prepare(self._reconfig.trees)

    # ------------------------------------------------------------------

    def _graphs(self):
        """(graph, root, item ids) triples to wire up, or ``None`` for
        the setup's single graph serving every item; the multi-source
        extension overrides this with one triple per source."""
        return None

    def _prepare(self, trees) -> None:
        self._root_of: dict[int, int] = {}
        for graph, root, item_ids in trees:
            for node in graph.nodes:
                if node not in self._stations:
                    self._stations[node] = FifoStation(name=f"node{node}")
            for item_id in item_ids:
                self._root_of[item_id] = root
                initial = self.setup.traces[item_id].initial_value
                for node in graph.nodes:
                    children = graph.children_for_item(node, item_id)
                    if children:
                        self._children[(node, item_id)] = children
                        for child, c_serve in children:
                            self.policy.register_edge(
                                node, child, item_id, c_serve, initial
                            )
                    if node != root:
                        state = graph.nodes[node]
                        if item_id in state.receive_c:
                            self._receive_c[(node, item_id)] = state.receive_c[item_id]
                            self._deliveries[(node, item_id)] = [(0.0, initial)]

    # ------------------------------------------------------------------

    def _on_source_update(
        self, item_id: int, value: float, update_id: int = -1
    ) -> None:
        self._source_value[item_id] = value
        root = self._root_of[item_id]
        decision = self.policy.at_source(item_id, value)
        if decision.checks:
            self.counters.record_check(root, is_source=True, count=decision.checks)
        if self.observer is not None:
            self.observer.on_source(
                update_id, item_id, self.kernel.now, root,
                decision.checks, decision.disseminate,
            )
        if not decision.disseminate:
            return
        self._process_at_node(root, item_id, value, decision.tag, update_id)

    def _on_delivery(
        self,
        node: int,
        item_id: int,
        value: float,
        tag,
        update_id: int = -1,
        src: int = -1,
    ) -> None:
        if node in self._departed or node in self._crashed:
            # The sender paid for the message, but the repository left
            # (or crashed) while it was in flight: a drop.
            self.counters.record_drop()
            if self.observer is not None:
                reason = "departed" if node in self._departed else "crash"
                self.observer.on_drop(
                    update_id, item_id, self.kernel.now, src, node, reason
                )
            return
        self.counters.record_delivery()
        if self.observer is not None:
            self.observer.on_deliver(update_id, item_id, self.kernel.now, node)
        log = self._deliveries.get((node, item_id))
        if log is not None:
            log.append((self.kernel.now, value))
        self._serve_clients(node, item_id, value)
        self._process_at_node(node, item_id, value, tag, update_id)

    def _serve_clients(self, node: int, item_id: int, value: float) -> None:
        """Filter one fresh copy to the repository's modeled clients.

        Mirrors the live layer: every client is served by the
        repository-local Eq. (3) + Eq. (7) test at the client's own
        tolerance, regardless of the repository-plane policy, and client
        traffic stays out of the repository-plane counters.  This scalar
        per-client loop is the oracle the vectorized kernel's per-run
        ``Staircase.serve`` must agree with, client for client.
        """
        tols = self._client_tols.get((node, item_id))
        if tols is None:
            return
        receive_c = self._receive_c.get((node, item_id))
        if receive_c is None:
            # The pair is mid-teardown (churn removed the subscription
            # while this message was in flight): nobody to serve from.
            return
        last = self._client_last.get((node, item_id))
        if last is None:
            last = self._client_last[(node, item_id)] = np.full(
                tols.shape, self.setup.traces[item_id].initial_value
            )
        sent = 0
        for index in range(len(tols)):
            if forward_distributed(value, last[index], tols[index], receive_c):
                last[index] = value
                sent += 1
        self.counters.record_client_serving(checks=len(tols), messages=sent)

    def _process_at_node(
        self, node: int, item_id: int, value: float, tag, update_id: int = -1
    ) -> None:
        children = self._children.get((node, item_id))
        if not children:
            return
        now = self.kernel.now
        is_source = node == self._root_of[item_id]
        parent_receive_c = 0.0 if is_source else self._receive_c[(node, item_id)]
        station = self._stations[node]
        observer = self.observer
        for child, _c_serve in children:
            decision = self.policy.decide(
                node, child, item_id, value, parent_receive_c, tag
            )
            self.counters.record_check(node, is_source=is_source, count=decision.checks)
            if observer is not None:
                observer.on_check(
                    update_id, item_id, now, node, child,
                    decision.checks, decision.forward, is_source,
                )
            if not decision.forward:
                continue
            departure = station.submit(now, self._comp_delay_s)
            arrival = departure + self.setup.network.delay_s(node, child)
            self.counters.record_message(node, is_source=is_source)
            if observer is not None:
                observer.on_forward(update_id, item_id, now, node, child, arrival - now)
            if self._down_links and (node, child) in self._down_links:
                # Partition: the sender paid (queueing included) but the
                # link ate the message.  Decided before the Bernoulli
                # loss draw, so the loss stream is only consumed for
                # messages that actually enter the network.
                self.counters.record_drop()
                if observer is not None:
                    observer.on_drop(update_id, item_id, now, node, child, "partition")
                continue
            if (
                self._loss_rng is not None
                and self._loss_rng.random() < self._loss_probability
            ):
                # Failure injection: the sender paid for the message but
                # the network ate it; the child stays stale until the
                # next update for it is forwarded.
                self.counters.record_drop()
                if observer is not None:
                    observer.on_drop(update_id, item_id, now, node, child, "loss")
                continue
            self.kernel.schedule_at(
                arrival, self._on_delivery, child, item_id, value, tag, update_id, node
            )

    # ------------------------------------------------------------------
    # Edge-store port (driven by repro.engine.reconfig)
    # ------------------------------------------------------------------

    def unwire(self, parent: int, child: int, item_id: int, c: float) -> None:
        key = (parent, item_id)
        children = self._children.get(key)
        if children is not None:
            children[:] = [(ch, cc) for ch, cc in children if ch != child]
            if not children:
                del self._children[key]
        self.policy.unregister_edge(parent, child, item_id)

    def wire(
        self, parent: int, child: int, item_id: int, c: float, initial: float
    ) -> None:
        for node in (parent, child):
            if node not in self._stations:
                self._stations[node] = FifoStation(name=f"node{node}")
        self._receive_c[(child, item_id)] = c
        self._children.setdefault((parent, item_id), []).append((child, c))
        self.policy.register_edge(parent, child, item_id, c, initial)

    def unsubscribe(self, node: int, item_id: int) -> None:
        self._receive_c.pop((node, item_id), None)

    def log(self, node: int, item_id: int, create: bool = False):
        if create:
            return self._deliveries.setdefault((node, item_id), [])
        return self._deliveries.get((node, item_id))

    def source_value(self, item_id: int) -> float:
        return self._source_value.get(
            item_id, self.setup.traces[item_id].initial_value
        )

    def message_counts(self) -> dict[int, int]:
        return dict(self.counters.per_node_messages)

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

    def run(self) -> SimulationResult:
        """Schedule all trace updates, run to quiescence, score fidelity."""
        schedule = self._begin_run()
        # Scheduled before the trace updates so that a control event
        # (churn, failure, drift tick) and an update or delivery at the
        # same instant apply the control event first: the kernel breaks
        # time ties in scheduling order.
        for t, event in self._reconfig.timeline(schedule.span):
            self.kernel.schedule_at(t, self._reconfig.apply, t, event)
        # tolist() yields plain Python floats/ints; scheduling the merged
        # time-sorted timeline enqueues the same (time, relative-order)
        # set the per-trace loop always produced, so heap pop order --
        # and with it every result bit -- is unchanged.
        # The enumerate index is the update's stable trace id: the same
        # numbering the vectorized drain loop and the live layer's
        # source sequence (seq - 1) reproduce.
        for update_id, (t, item_id, v) in enumerate(
            zip(
                schedule.times.tolist(),
                schedule.item_ids.tolist(),
                schedule.values.tolist(),
            )
        ):
            self.kernel.schedule_at(t, self._on_source_update, item_id, v, update_id)
        self.kernel.run()
        return self._score(schedule.span, self.kernel.events_processed)

    def _score(self, span: float, events_processed: int) -> SimulationResult:
        accumulator = FidelityAccumulator()
        per_pair: dict[tuple[int, int], float] = {}
        windows = scoring_windows(self.setup.traces)
        for (repo, item_id), segments in self._reconfig.segments.items():
            trace = self.setup.traces[item_id]
            log = self._deliveries.get((repo, item_id))
            if log is None:
                # Never wired for the item (cannot happen after LeLA
                # validation, but fail loud rather than silently).
                raise SimulationError(
                    f"repository {repo} has no delivery log for item {item_id}"
                )
            # A single open segment covering t0 (static membership, no
            # failure touched the pair) scores exactly as the churn-free
            # engine always has, bit for bit; otherwise the loss is
            # duration-weighted over the live intervals.  None means the
            # requirement was never live inside the window (e.g. a join
            # past the last trace sample): nothing to score.
            t0, t1 = windows[item_id]
            loss = segmented_loss(
                trace.times, trace.values, *unzip_log(log), segments, t0, t1
            )
            if loss is None:
                continue
            accumulator.add(repo, item_id, loss)
            per_pair[(repo, item_id)] = loss
        extras: dict = {
            "per_pair_loss": per_pair,
            "workload": self.setup.config.workload.name,
        }
        core = self._reconfig
        if core.membership is not None:
            extras["churn_events"] = len(core.churn)
            extras["final_members"] = len(core.membership.members)
        if core.failures is not None:
            extras["failure_events"] = len(core.failures)
            extras["crashes"] = core.failures.count("crash")
            extras["partitions"] = core.failures.count("link_down")
        if core.adaptive is not None:
            extras["adaptive_ticks"] = core.adaptive.ticks
            extras["adaptive_triggered"] = core.adaptive.triggered
            extras["adaptive_rewires"] = core.adaptive.rewires
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
        both engines: the scalar kernel pops events in that order, and
        the batch engine either pops its heap in it or, for a pair with
        no dependents in a static run, appends each arrival where it is
        sent, which is the same order (see
        ``docs/architecture/vectorized-kernel.md``, "Leaf landings").
        """
        return list(self._deliveries.get((repo, item_id), []))


def make_simulation(
    setup: SimulationSetup,
    policy: DisseminationPolicy | None = None,
    observer=None,
) -> DisseminationSimulation:
    """Instantiate the engine the setup's config asks for.

    ``kernel="auto"`` (the default) picks the batch-kernel engine
    (:class:`~repro.engine.vectorized.VectorizedSimulation`) whenever
    the run supports it -- one of the four push policies -- and the
    scalar oracle otherwise.  The two are bit-identical wherever both
    apply (pinned by the golden suite), and the batch kernel is faster
    at every edge-group width the repo can produce, so ``auto`` needs
    no selector.  ``paper`` preset with 300-sample traces, seconds per
    run against the offered degree (the last column is no cooperation
    at 1000 repositories, 4 items, 200 samples -- the widest source
    groups the repo produces):

    =================  ====  ====  ====  ====  ====  ====
    offered degree        4     8    16    32   100  1000
    widest edge group     4     8    16    28    61   533
    =================  ====  ====  ====  ====  ====  ====
    batch kernel       0.16  0.15  0.12  0.12  0.07  0.18
    scalar kernel      0.68  0.69  0.57  0.59  0.53  0.88
    =================  ====  ====  ====  ====  ====  ====

    A delivery to an edge group with no dependents lands at its push
    site and never sees the heap, so the flatter the tree the less of a
    run is event handling: 50 / 60 / 74 / 65 / 98 / 100 % of the groups
    are such leaves in the six columns (all but the source's at no
    cooperation, where the heap stays empty).

    ``observer`` (e.g. a :class:`repro.obs.trace.TraceRecorder`) is
    attached out-of-band; it records trace spans without perturbing the
    run.

    Raises:
        ConfigurationError: when ``kernel="vectorized"`` is forced for a
            run the vectorized engine does not support.
    """
    # Local import: the vectorized engine subclasses
    # DisseminationSimulation, so importing it at module scope would be
    # circular.
    from repro.engine.vectorized import VectorizedSimulation

    config = setup.config
    kernel = config.kernel
    policy_name = policy.name if policy is not None else config.policy
    supported = policy_name in FILTERED_POLICIES
    if kernel == "scalar":
        return DisseminationSimulation(setup, policy, observer=observer)
    if kernel == "vectorized":
        if not supported:
            raise ConfigurationError(
                f"kernel='vectorized' cannot run policy {policy_name!r}; "
                f"supported: {list(FILTERED_POLICIES)}"
            )
        return VectorizedSimulation(setup, policy, observer=observer)
    return (
        VectorizedSimulation(setup, policy, observer=observer)
        if supported
        else DisseminationSimulation(setup, policy, observer=observer)
    )


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
