"""Sans-io node logic of the live repository network.

A node consumes updates and emits messages; it never touches a socket
or a clock directly.  The same node objects are therefore driven by
every runtime -- the deterministic virtual-time wire, the asyncio TCP
wire (:mod:`repro.live.transport`) and the fleet worker -- and by
tests, without any divergence in dissemination behaviour.

The row is the message: a node emits the seven-field
:class:`~repro.live.protocol.Forwards` row ``[dst, arrival_s, item_id,
value, tag, seq, src]`` itself, the one shape every stage downstream
schedules, queues, writes and reads back.  ``arrival_s`` is the
*absolute* simulated arrival time (sender-side queueing and link delay
included), so the virtual-time wire schedules the exact float the
engine computes: ``now + (arrival - now)`` differs by an ULP.

The coherency decisions are exactly the simulator's: a node forwards
over one :class:`EdgeGroup` of columns per item with the policy's
:data:`~repro.core.dissemination.filtering.FORWARD_RULES` entry, and
the centralised source tags with the engine's
:class:`~repro.core.dissemination.filtering.StaircaseTagger`.  Timing
semantics also mirror the engine: each forwarded copy costs
``comp_delay`` of serialised server time at the sending node (a
:class:`~repro.sim.queueing.FifoStation`) before it leaves, then
travels the end-to-end network delay.

Client service is the engine's modeled-client plane: a repository
holds, per item, one :class:`~repro.core.dissemination.filtering.
Staircase` over the setup's read-only block of client tolerances and
serves it on every delivery while it still receives the item -- the
repository-local Eq. (3) + Eq. (7) test at each client's own
tolerance, whatever the repository-plane policy.  Clients are not
transport nodes: they cost no frame and no station time, and only the
``client_checks`` / ``client_messages`` totals of
:class:`~repro.core.metrics.CostCounters` record them, exactly as in
the engine.
"""

from __future__ import annotations

from repro.core.dissemination.filtering import (
    FORWARD_RULES,
    EdgeFilter,
    Staircase,
    StaircaseTagger,
)
from repro.core.metrics import CostCounters
from repro.live.protocol import Update
from repro.sim.queueing import FifoStation

__all__ = ["EdgeGroup", "SourceNode", "RepositoryNode"]


class EdgeGroup:
    """One node's dependents for one item, as parallel columns.

    ``child[i]`` is served at tolerance ``cs[i]`` over a ``delay[i]``
    second link; ``last[i]`` is the last value sent to it and
    ``last_seq[i]`` that value's seq (0 until the first forward), the
    head the fleet's anti-entropy resync compares a child against.
    ``rule`` is the policy's ``FORWARD_RULES`` entry.
    """

    __slots__ = ("rule", "child", "cs", "last", "delay", "last_seq")

    def __init__(self, rule) -> None:
        self.rule = rule
        self.child, self.cs, self.last, self.delay, self.last_seq = [], [], [], [], []

    def wire(self, child: int, c_serve: float, initial: float, delay_s: float) -> None:
        self.child.append(child)
        self.cs.append(c_serve)
        self.last.append(initial)
        self.delay.append(delay_s)
        self.last_seq.append(0)

    def unwire(self, child: int) -> None:
        """Drop ``child``'s entry; an absent child changes nothing."""
        if child in self.child:
            i = self.child.index(child)
            for column in (self.child, self.cs, self.last, self.delay, self.last_seq):
                del column[i]


class _ForwardingNode:
    """Shared forwarding machinery of the source and the repositories."""

    def __init__(self, node: int, comp_delay_s: float, counters: CostCounters) -> None:
        self.node = node
        self.comp_delay_s = comp_delay_s
        self.counters = counters
        self.station = FifoStation()
        #: item_id -> repository-plane dependents, in wiring order.
        self.edges: dict[int, EdgeGroup] = {}
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
    ) -> None:
        """Wire a dependent from ``filter``'s rule, stored tolerance and
        initial value, keeping no reference."""
        # ``c_serve`` is unused; it stays because the perf ledger's
        # frozen ``live.nodes.on_message_ns`` probe passes it.
        group = self.edges.get(item_id)
        if group is None:
            group = self.edges[item_id] = EdgeGroup(FORWARD_RULES[filter.policy])
        group.wire(child, filter.c_serve, filter.last_sent, link_delay_s)

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
        the item (an in-flight copy of an unsubscribed pair).
        """
        rows: list[list] = []
        node = self.node
        submit, comp_delay_s = self.station.submit, self.comp_delay_s
        group = self.edges.get(item_id)
        if group is not None and group.child:
            # The trace id is the schedule index; seqs count from 1.
            observer, update_id, messages = self.observer, seq - 1, 0
            rule, cs, last, delay = group.rule, group.cs, group.last, group.delay
            last_seq = group.last_seq
            for i, child in enumerate(group.child):
                forward = rule(value, last[i], cs[i], parent_receive_c, tag)
                if observer is not None:
                    observer.on_check(
                        update_id, item_id, now, node, child, 1, forward, is_source
                    )
                if not forward:
                    continue
                last[i] = value
                last_seq[i] = seq
                arrival = submit(now, comp_delay_s) + delay[i]
                messages += 1
                if observer is not None:
                    observer.on_forward(
                        update_id, item_id, now, node, child, arrival - now
                    )
                rows.append([child, arrival, item_id, value, tag, seq, node])
            # Charged once per call, not per edge: counters are only
            # read between node calls (control instants), and a zero
            # count must not create a per-node key.
            self.counters.record_check(node, is_source, len(group.child))
            if messages:
                self.counters.record_message(node, is_source, messages)
        return rows


class SourceNode(_ForwardingNode):
    """Replays the workload: examines fresh updates and pushes them.

    For the centralised policy the node holds the engine's
    :class:`~repro.core.dissemination.filtering.StaircaseTagger`; the
    other policies pass every update through untagged, exactly like
    their ``at_source`` hooks.
    """

    def __init__(
        self,
        node: int,
        comp_delay_s: float,
        counters: CostCounters,
        tagger: StaircaseTagger | None = None,
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
        #: item_id -> flat receive log ``[t0, v0, t1, v1, ...]`` (arrival
        #: sim-time, value); primed by the harness.
        self.deliveries: dict[int, list[float]] = {}
        #: item_id -> highest source seq received -- the per-item heads
        #: the anti-entropy resync samples over.
        self.seqs: dict[int, int] = {}
        #: item_id -> the modeled clients' last-served state over their
        #: ascending tolerance block; built by the harness, kept across
        #: an unsubscribe so a later rewire resumes it.
        self.clients: dict[int, Staircase] = {}

    def receive(
        self, item_id: int, value: float, tag: float | None, seq: int, now: float
    ) -> list[list]:
        """Handle one pushed update: log it, serve the modeled clients
        while the node still receives the item (the reference oracle's
        rule), then forward downstream."""
        counters = self.counters
        counters.record_delivery()
        if self.observer is not None:
            self.observer.on_deliver(seq - 1, item_id, now, self.node)
        if seq > self.seqs.get(item_id, 0):
            self.seqs[item_id] = seq
        log = self.deliveries.get(item_id)
        if log is not None:
            log.append(now)
            log.append(value)
        receive_c = self.receive_c.get(item_id)
        clients = self.clients.get(item_id)
        if clients is not None and receive_c is not None:
            counters.record_client_serving(
                len(clients.cs), clients.serve(value, receive_c)
            )
        return self._forward(item_id, value, tag, now, receive_c, seq, False)

    def on_message(self, update: Update, now: float) -> list[list]:
        """:meth:`receive`, from a typed :class:`~repro.live.protocol.Update`."""
        return self.receive(update.item_id, update.value, update.tag, update.seq, now)
