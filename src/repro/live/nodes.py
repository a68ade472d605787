"""Sans-io node logic of the live repository network.

A node consumes updates and emits messages; it never touches a socket
or a clock directly.  The same node objects are therefore driven by
both transports -- the deterministic virtual-time driver and the
asyncio TCP driver (:mod:`repro.live.transport`) -- and by tests,
without any divergence in dissemination behaviour.

The row is the message: a node emits the seven-field
:class:`~repro.live.protocol.Forwards` row ``[dst, arrival_s, item_id,
value, tag, seq, src]`` itself, the one shape every stage downstream
schedules, queues, writes and reads back.  ``arrival_s`` is the
*absolute* simulated arrival time (sender-side queueing and link delay
included), so the virtual-time transport schedules the exact float the
engine computes: ``now + (arrival - now)`` differs by an ULP.

The coherency decisions are exactly the simulator's: every service
edge holds an :class:`~repro.core.dissemination.filtering.EdgeFilter`
and the source holds a :class:`~repro.core.dissemination.filtering.
SourceTagger` when the centralised policy runs -- the very objects the
reference :class:`~repro.core.dissemination.policy.DisseminationPolicy`
tables.  Timing semantics also mirror the engine:
each forwarded copy costs ``comp_delay`` of serialised server time at
the sending node (a :class:`~repro.sim.queueing.FifoStation`) before it
leaves, then travels the end-to-end network delay.

Client service: an attached client is a dependent of its repository,
filtered per (client, item) with the repository-local Eq. (3) + Eq. (7)
test at the client's own tolerance (regardless of the repository-plane
policy -- clients are invisible to the source, so tag pruning cannot
cover them).  Client traffic is counted separately from the
repository-plane :class:`~repro.core.metrics.CostCounters` so live
message counts stay comparable with the simulator's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.dissemination.filtering import EdgeFilter, SourceTagger
from repro.core.metrics import CostCounters
from repro.live.protocol import Update
from repro.sim.queueing import FifoStation

__all__ = ["Edge", "SourceNode", "RepositoryNode", "ClientNode"]


@dataclass
class Edge:
    """One service edge a node pushes an item over.

    ``last_seq``/``last_value`` record the head of what this edge has
    actually forwarded (not everything the source published -- the
    coherency filter prunes).  The fleet's anti-entropy resync compares
    a child's received heads against exactly these per-edge forwarded
    heads, so filtering decisions never read as false "missed updates".
    """

    child: int
    c_serve: float
    filter: EdgeFilter
    link_delay_s: float
    is_client: bool = False
    last_seq: int = 0
    last_value: float = 0.0


class _ForwardingNode:
    """Shared forwarding machinery of the source and the repositories."""

    def __init__(self, node: int, comp_delay_s: float, counters: CostCounters) -> None:
        self.node = node
        self.comp_delay_s = comp_delay_s
        self.counters = counters
        self.station = FifoStation()
        #: item_id -> service edges, in ``d3g`` child order.
        self.edges: dict[int, list[Edge]] = {}
        #: Client-plane messages sent (kept out of ``counters``).
        self.client_messages = 0
        #: Out-of-band trace observer (attached by the harness when the
        #: run is traced; see :mod:`repro.obs.trace`).  Write-only: it
        #: records decisions, never makes them, so attaching one keeps
        #: the run bit-identical.
        self.observer = None

    def add_edge(
        self,
        item_id: int,
        child: int,
        c_serve: float,
        filter: EdgeFilter,
        link_delay_s: float,
        is_client: bool = False,
    ) -> None:
        edges = self.edges.setdefault(item_id, [])
        at = len(edges)
        if not is_client:
            # Dependents ahead of clients, wherever a rewire lands them:
            # client service never delays the repository plane.
            while at and edges[at - 1].is_client:
                at -= 1
        edges.insert(at, Edge(child, c_serve, filter, link_delay_s, is_client))

    def _forward(
        self,
        item_id: int,
        value: float,
        tag: float | None,
        now: float,
        parent_receive_c: float | None,
        seq: int,
        is_source: bool,
    ) -> list[list]:
        """Filter one update over this node's edges; the rows to send.

        ``parent_receive_c`` is ``None`` when the node no longer receives
        the item (an in-flight copy of an unsubscribed pair): then no
        client is served from it, the reference oracle's rule.
        """
        rows: list[list] = []
        edges = self.edges.get(item_id)
        if not edges:
            return rows
        node, observer = self.node, self.observer
        submit, comp_delay_s = self.station.submit, self.comp_delay_s
        # The live plane numbers workload updates from 1 (seq); the
        # trace id is the schedule index, hence seq - 1.
        update_id = seq - 1
        checks = messages = 0
        for edge in edges:
            if edge.is_client:
                if parent_receive_c is None or not edge.filter.decide(
                    value, parent_receive_c, None
                ):
                    continue
                departure = submit(now, comp_delay_s)
                self.client_messages += 1
            else:
                forward = edge.filter.decide(value, parent_receive_c, tag)
                checks += 1
                if observer is not None:
                    observer.on_check(
                        update_id, item_id, now, node, edge.child,
                        1, forward, is_source,
                    )
                if not forward:
                    continue
                departure = submit(now, comp_delay_s)
                messages += 1
                if observer is not None:
                    observer.on_forward(
                        update_id, item_id, now, node, edge.child,
                        departure + edge.link_delay_s - now,
                    )
                edge.last_seq = seq
                edge.last_value = value
            rows.append(
                [edge.child, departure + edge.link_delay_s, item_id, value, tag, seq, node]
            )
        # Charged once per call, not per edge: counters are only read
        # between node calls (control instants), and a zero count must
        # not create a per-node key.
        if checks:
            self.counters.record_check(node, is_source, checks)
        if messages:
            self.counters.record_message(node, is_source, messages)
        return rows


class SourceNode(_ForwardingNode):
    """Replays the workload: examines fresh updates and pushes them.

    For the centralised policy the node holds the shared
    :class:`SourceTagger`; the other policies pass every update through
    untagged, exactly like their ``at_source`` hooks.
    """

    def __init__(
        self,
        node: int,
        comp_delay_s: float,
        counters: CostCounters,
        tagger: SourceTagger | None = None,
    ) -> None:
        super().__init__(node, comp_delay_s, counters)
        self.tagger = tagger
        self._seq = 0
        #: item_id -> freshest workload value seen, disseminated or not;
        #: recovery resyncs pull from here when the live parent is the
        #: source (the engine's ``_source_value`` equivalent).
        self.values: dict[int, float] = {}

    def on_update(self, item_id: int, value: float, now: float) -> list[list]:
        """Handle one fresh workload update at the source."""
        self.values[item_id] = value
        self._seq += 1
        tag: float | None = None
        checks = 0
        disseminate = True
        if self.tagger is not None:
            decision = self.tagger.examine(item_id, value)
            checks = decision.checks
            disseminate = decision.disseminate
            if decision.checks:
                self.counters.record_check(
                    self.node, is_source=True, count=decision.checks
                )
            tag = decision.tag if disseminate else None
        if self.observer is not None:
            self.observer.on_source(
                self._seq - 1, item_id, now, self.node, checks, disseminate
            )
        if not disseminate:
            return []
        return self._forward(
            item_id, value, tag, now, parent_receive_c=0.0, seq=self._seq,
            is_source=True,
        )


class RepositoryNode(_ForwardingNode):
    """One cooperating repository: refresh the local copy, filter, forward."""

    def __init__(
        self,
        node: int,
        comp_delay_s: float,
        counters: CostCounters,
        receive_c: dict[int, float],
    ) -> None:
        super().__init__(node, comp_delay_s, counters)
        #: item_id -> coherency at which this node receives it (Eq. 7's c_p).
        self.receive_c = dict(receive_c)
        #: item_id -> [(arrival sim-time, value), ...]; primed by the harness.
        self.deliveries: dict[int, list[tuple[float, float]]] = {}
        #: item_id -> highest source seq received -- the per-item heads
        #: the anti-entropy resync samples over.
        self.seqs: dict[int, int] = {}

    def receive(
        self, item_id: int, value: float, tag: float | None, seq: int, now: float
    ) -> list[list]:
        """Handle one pushed update: log it, then forward downstream."""
        self.counters.record_delivery()
        if self.observer is not None:
            self.observer.on_deliver(seq - 1, item_id, now, self.node)
        if seq > self.seqs.get(item_id, 0):
            self.seqs[item_id] = seq
        log = self.deliveries.get(item_id)
        if log is not None:
            log.append((now, value))
        return self._forward(
            item_id, value, tag, now, self.receive_c.get(item_id), seq, False
        )

    def on_message(self, update: Update, now: float) -> list[list]:
        """:meth:`receive`, from a typed :class:`~repro.live.protocol.Update`."""
        return self.receive(update.item_id, update.value, update.tag, update.seq, now)


@dataclass
class ClientNode:
    """An attached end client: receives its filtered stream, measures.

    Attributes:
        node: Transport-level node id (outside the repository id space).
        client_id: The :class:`~repro.core.clients.Client` this node
            realises.
        repository: The repository it reads from.
        requirements: ``item_id -> c`` tolerances it needs.
        deliveries: ``item_id -> [(arrival sim-time, value), ...]``;
            primed by the harness, appended per received update.
    """

    node: int
    client_id: int
    repository: int
    requirements: dict[int, float]
    deliveries: dict[int, list[tuple[float, float]]] = field(default_factory=dict)

    def receive(
        self, item_id: int, value: float, tag: float | None, seq: int, now: float
    ) -> list[list]:
        """Record one received update; clients never forward."""
        log = self.deliveries.get(item_id)
        if log is not None:
            log.append((now, value))
        return []
