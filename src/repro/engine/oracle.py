"""The per-event reference engine: the oracle the engine is checked against.

Same simulation as :mod:`repro.engine.simulation` (its module docstring
states the semantics), written the obvious way: every trace update and
every in-flight message is one :class:`~repro.sim.events.Event` on a
:class:`~repro.sim.kernel.Simulator`, a node is a
:class:`~repro.sim.queueing.FifoStation`, and every (update, dependent)
pair is one call on a
:class:`~repro.core.dissemination.policy.DisseminationPolicy` -- a
dict of :class:`~repro.core.dissemination.filtering.EdgeFilter` objects.
3.5-5x slower than the engine's flat loop at every edge-group width, and
kept for exactly that obviousness: the golden and property suites
(``tests/engine/test_vectorized_golden.py``,
``tests/properties/test_engine_properties.py``) and the perf ledger's
``correct`` check require the engine's result to ``==`` this one's on
loss, per-pair losses, every counter, ``events_processed`` and trace
spans.  No production path constructs it; ``kernel="scalar"`` is the
debugging switch that does.

As an edge store of the :class:`~repro.engine.reconfig.
ReconfigurationCore` it patches dict tables and the policy object.
"""

from __future__ import annotations

import numpy as np

from repro.core.dissemination import DisseminationPolicy, make_policy
from repro.core.dissemination.filtering import forward_distributed
from repro.engine.builder import SimulationSetup
from repro.engine.results import SimulationResult
from repro.engine.simulation import SimulationBase
from repro.sim.kernel import Simulator
from repro.sim.queueing import FifoStation

__all__ = ["DisseminationSimulation"]


class DisseminationSimulation(SimulationBase):
    """Drives one dissemination policy over one built setup, one event
    per message.

    Args:
        setup: As for :class:`~repro.engine.simulation.SimulationBase`.
        policy: The policy object to drive; ``None`` builds the config's.
        observer: As for the base.
        trees: As for the base.
    """

    def __init__(
        self,
        setup: SimulationSetup,
        policy: DisseminationPolicy | None = None,
        observer=None,
        trees=None,
    ):
        super().__init__(setup, observer, trees)
        self.policy = policy if policy is not None else make_policy(setup.config.policy)
        self.kernel = Simulator()
        self._stations: dict[int, FifoStation] = {}
        # Per (node, item): list of (child, c_serve); precomputed for speed.
        self._children: dict[tuple[int, int], list[tuple[int, float]]] = {}
        self._receive_c: dict[tuple[int, int], float] = {}
        # Modeled-client plane: per (repo, item), this run's mutable
        # last-served array, made on the pair's first delivery (the
        # engine keeps staircases instead and makes none).
        self._client_last: dict[tuple[int, int], np.ndarray] = {}
        # The availability sets are bound once (the core mutates them in
        # place) so the hot path pays one attribute lookup.
        self._departed = self._reconfig.departed
        self._crashed = self._reconfig.crashed
        self._down_links = self._reconfig.down_links
        for graph, root, item_ids in self._reconfig.trees:
            for node in graph.nodes:
                if node not in self._stations:
                    self._stations[node] = FifoStation(name=f"node{node}")
            for item_id in item_ids:
                initial = setup.traces[item_id].initial_value
                for node, state in graph.nodes.items():
                    children = graph.children_for_item(node, item_id)
                    if children:
                        self._children[(node, item_id)] = children
                        for child, c_serve in children:
                            self.policy.register_edge(
                                node, child, item_id, c_serve, initial
                            )
                    if node != root and item_id in state.receive_c:
                        self._receive_c[(node, item_id)] = state.receive_c[item_id]

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
        traffic stays out of the repository-plane counters.  This
        per-client loop is the oracle the engine's per-run
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

    def message_counts(self) -> dict[int, int]:
        return dict(self.counters.per_node_messages)

    # ------------------------------------------------------------------

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
        # numbering the engine's drain loop and the live layer's
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
