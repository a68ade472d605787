"""The fleet worker: one process hosting one shard of the live network.

Every worker rebuilds the *full* network from the frozen config -- the
builder is bit-reproducible, so all workers agree on every node, edge
and trace without shipping a byte of state -- then activates
only the nodes its shard owns (:mod:`repro.fleet.sharding`).

The worker is a thin driver of the shared runtime
(:mod:`repro.live.wire`), the same one both single-process wires
(:mod:`repro.live.transport`) drive: it only says where a destination
lives -- at ``start`` it routes every node a peer owns to that peer's
link (the runtime judges loss as on every plane: only this worker
draws its senders' links; the supervisor refuses failures).  A
same-shard delivery goes onto the local due queue; a cross-shard
delivery is queued on the worker's single multiplexed link to the
destination's owner, behind a
:class:`~repro.live.wire.SendQueue`'s backpressure, and leaves as a row
of the :class:`~repro.live.protocol.Forwards` frame the link writes.

Timing: the ``start`` command carries one monotonic-clock epoch, the
supervisor's reading as it sent the command; every worker paces its due
queue against it, and nodes *process* each message at its logical
``arrival_s`` stamp (the runtime's one delivery convention), not
through the wall-clock slop of N racing processes -- the moment a
worker takes to read ``start`` included.  That is what lets a fleet run
read the engine's fidelity exactly.

Liveness and recovery come with the runtime's links (versioned
``Hello`` with a connection generation, heartbeats, reconnect with
capped exponential backoff).  What the worker adds: when it sees a
peer's generation jump it knows the previous connection died with
frames possibly unsent, and starts a sample-based anti-entropy session
(:mod:`repro.fleet.antientropy`) for each local repository whose parent
lives on that peer, charged into the run's
:class:`~repro.core.metrics.CostCounters`.

The process is a fork of the supervisor's ``forkserver``, which has
imported this module but never run a worker; the supervisor hands it a
duplicate of its current standard error, which becomes the worker's
fd 2 before anything runs.

The worker talks to the supervisor over a ``multiprocessing`` pipe:
``("ready", worker, port)`` after binding, then obeys ``start`` (port
map + epoch), ``sever``, ``quiesce``, ``stats?`` and ``finish``.  It
answers ``stats?`` at once with ``("stats", worker, sent, delivered,
dropped, pending)`` and ``finish`` with ``("report", worker,
WorkerReport)``; unasked, the source owner says ``("replay-done",
worker)`` when the source schedule is through, and after ``quiesce``
every worker pushes ``("idle", worker, sent, delivered, dropped)``
each time it runs out of local work -- due heap and session table both
empty -- which is all the supervisor waits on
(:mod:`repro.fleet.quiescence`).  Anything that raises on the way -- a
due-queue action included -- goes home as ``("fatal", worker,
traceback)``.
"""

from __future__ import annotations

import asyncio
import os
import resource
import time
import traceback
from dataclasses import dataclass, field

from repro.core.metrics import CostCounters
from repro.core.tree import TreeStats
from repro.engine.builder import build_setup
from repro.engine.config import SimulationConfig
from repro.fleet.antientropy import ChildSession, ParentView
from repro.fleet.sharding import plan_shards
from repro.live.harness import build_live_network
from repro.live.protocol import Hello, ResyncRequest, ResyncResponse, Stats
from repro.live.wire import WireRuntime
from repro.obs.trace import TraceRecorder

__all__ = ["FleetSpec", "WorkerReport", "worker_main"]


@dataclass(frozen=True)
class FleetSpec:
    """Everything a worker needs to rebuild and run its shard.

    Picklable by construction: it crosses the process boundary in each
    worker's arguments.
    """

    config: SimulationConfig
    n_workers: int
    duration: float | None = None
    time_scale: float = 60.0
    heartbeat_interval_s: float = 0.5
    host: str = "127.0.0.1"
    #: Attach a span recorder on every worker and ship the spans plus a
    #: metrics snapshot home in the report.  Deliberately NOT part of
    #: the run's :class:`~repro.engine.config.SimulationConfig` -- the
    #: flag crosses the process boundary out-of-band, so cache fingerprints
    #: and dissemination behaviour are untouched (traced fleet runs are
    #: bit-identical to untraced ones).
    trace: bool = False


@dataclass
class WorkerReport:
    """One worker's slice of the fleet run, merged by the supervisor.

    ``sent`` counts messages the shard's nodes handed to the transport
    (local and cross-worker alike); ``delivered`` counts messages the
    shard's nodes processed.  A frame sent by worker A to worker B is
    in A's ``sent`` and B's ``delivered``, so only the fleet-wide sums
    obey conservation -- which is exactly the merged invariant the
    supervisor enforces.
    """

    worker: int
    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    heartbeats: int = 0
    reconnects: int = 0
    resync_frames: int = 0
    queue_stalls: int = 0
    protocol_errors: int = 0
    n_local_nodes: int = 0
    span_s: float = 0.0
    wall_seconds: float = 0.0
    #: Source updates and deliveries the shard's due queue released.
    events_processed: int = 0
    counters: CostCounters = field(default_factory=CostCounters)
    per_pair_loss: dict = field(default_factory=dict)
    #: Trace spans recorded on this shard (empty unless ``spec.trace``);
    #: the supervisor merges them into the caller's recorder with
    #: update ids stable across shards.
    spans: list = field(default_factory=list)
    #: JSON-ready :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`
    #: of this worker's telemetry (empty unless ``spec.trace``).
    metrics_snapshot: dict = field(default_factory=dict)
    #: Peer :class:`~repro.live.protocol.Stats` frames absorbed.
    stats_frames: int = 0
    #: The network's shape, the same from every rebuild; the source
    #: owner alone reports it (the supervisor builds nothing to ask).
    tree_stats: TreeStats | None = None
    effective_degree: int = 0
    avg_comm_delay_ms: float = 0.0
    #: This process's peak resident set (``ru_maxrss``), in MiB.
    peak_rss_mb: float = 0.0


def worker_main(
    worker_id: int, spec: FleetSpec, conn, stderr_fd: int | None = None
) -> None:
    """Process entry point: run the shard, report, exit.

    ``stderr_fd``, when given, is the caller's standard error: it
    replaces this process's fd 2 before anything else runs.
    """
    if stderr_fd is not None:
        os.dup2(stderr_fd, 2)
        os.close(stderr_fd)
    try:
        asyncio.run(_run_worker(worker_id, spec, conn))
    except BaseException:
        try:
            conn.send(("fatal", worker_id, traceback.format_exc()))
        finally:
            raise


async def _run_worker(worker_id: int, spec: FleetSpec, conn) -> None:
    shard = _Shard(worker_id, spec, conn)
    conn.send(("ready", worker_id, await shard.server.listen(spec.host)))
    try:
        await shard.obey()
    finally:
        await shard.close()
    conn.send(("report", worker_id, shard.final_report()))


class _Shard(WireRuntime):
    """One worker's slice of the network on the shared socket runtime.

    Same-shard hops stay on the local due queue, cross-shard hops go
    over the one multiplexed link to the destination's owner; on top of
    that the shard obeys the supervisor pipe, runs the anti-entropy
    sessions a peer's generation jump calls for, and scores its report.
    """

    def __init__(self, worker_id: int, spec: FleetSpec, conn) -> None:
        config = spec.config
        setup = build_setup(config)
        network = build_live_network(config, setup=setup)
        self.plan = plan_shards(setup, spec.n_workers)
        local_nodes = set(self.plan.nodes_of(worker_id))
        self.local_repos = {r for r in network.repositories if r in local_nodes}
        self.owns_source = self.plan.owner[self.plan.source] == worker_id

        self.report = WorkerReport(
            worker=worker_id, n_local_nodes=len(local_nodes), counters=network.counters
        )
        # Out-of-band span recorder: write-only, so attaching it leaves the
        # shard's dissemination decisions bit-identical (see repro.obs.trace).
        self.recorder = TraceRecorder(policy=config.policy) if spec.trace else None
        if self.recorder is not None:
            network.attach_observer(self.recorder)

        super().__init__(
            network,
            self.report,
            hosted=self.local_repos,
            src=worker_id,
            time_scale=spec.time_scale,
            host=spec.host,
            heartbeat_interval_s=spec.heartbeat_interval_s,
            # Traced runs piggyback a telemetry frame on the heartbeat
            # cadence; untraced runs put nothing extra on the wire.
            metrics=self.recorder.metrics if self.recorder is not None else None,
        )
        self.spec = spec
        self.conn = conn
        self.wall_start = 0.0
        #: Child-side anti-entropy sessions by (child, parent).
        self.sessions: dict[tuple[int, int], ChildSession] = {}
        self.peer_generation: dict[int, int] = {}
        #: Set by ``quiesce``: from then on going idle is news.
        self.quiescing = False

    def pending(self) -> int:
        """Also the open sessions: a resync frame on the wire is in no
        queue and in no counter, but its session is waiting for it."""
        return super().pending() + len(self.sessions)

    def push_if_idle(self) -> None:
        """Once told to ``quiesce``: tell the supervisor, with a counter
        snapshot, if there is nothing left to do here.  Called wherever
        that can become true -- a message reached its fate, a session
        closed, ``quiesce`` itself arrived.

        Here means the due heap and the session table.  A row still in
        a link queue or on the wire shows as ``sent - delivered -
        dropped > 0`` across the fleet, and landing makes its receiver
        busy and then idle again, so somebody pushes after it.
        """
        if self.quiescing and not self.due and not self.sessions:
            report = self.report
            self.conn.send(
                ("idle", self.src, report.sent, report.delivered, report.dropped)
            )

    #: The runtime's hook -- one message reached its fate -- is one of
    #: those places (an alias, not a second call per delivery).
    settled = push_if_idle

    # ---- supervisor control channel ----

    async def obey(self) -> None:
        """Execute the supervisor's commands until ``finish``."""
        loop = asyncio.get_running_loop()
        conn, worker_id, report = self.conn, self.src, self.report
        while True:
            self.check()  # a dead due queue is fatal, not a silent stall
            if not await loop.run_in_executor(None, conn.poll, 0.05):
                continue
            command = conn.recv()
            if command[0] == "start":
                _tag, ports, epoch = command
                for peer, port in sorted(ports.items()):
                    if peer != worker_id:
                        self.connect(peer, port)
                self.routes = {
                    node: self.links[owner]
                    for node, owner in self.plan.owner.items()
                    if owner != worker_id
                }
                if self.owns_source:
                    self.schedule_replay(self.spec.duration, self.replay_finished)
                self.wall_start = time.perf_counter()
                self.start(epoch)
            elif command[0] == "stats?":
                conn.send(
                    (
                        "stats", worker_id, report.sent, report.delivered,
                        report.dropped, self.pending(),
                    )
                )
            elif command[0] == "sever":
                for link in self.links.values():
                    link.sever()
            elif command[0] == "quiesce":
                self.quiescing = True
                self.push_if_idle()
            elif command[0] == "finish":
                return

    def replay_finished(self) -> None:
        self.conn.send(("replay-done", self.src))

    def final_report(self) -> WorkerReport:
        """Score the shard and fill in the report (after :meth:`close`)."""
        report, network, spec = self.report, self.network, self.spec
        report.wall_seconds = time.perf_counter() - self.wall_start
        report.queue_stalls = sum(link.queue.stalls for link in self.links.values())
        report.protocol_errors = self.server.protocol_errors
        report.events_processed = self.due.events_processed
        core, setup = network.reconfig, network.setup
        core.serve_clients(setup.client_tolerances, setup.traces, only=self.local_repos)
        # The supervisor re-accumulates fidelity from the pairs.
        _accumulator, report.per_pair_loss = core.score(
            setup.traces, spec.duration, only=self.local_repos
        )
        report.span_s = network.span(spec.duration)
        if self.owns_source:
            report.tree_stats = setup.graph.stats()
            report.effective_degree = setup.effective_degree
            report.avg_comm_delay_ms = setup.avg_comm_delay_ms
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        report.peak_rss_mb = peak_kib / 1024.0
        if self.recorder is not None:
            metrics = self.recorder.metrics
            for name in (
                "reconnects", "resync_frames", "heartbeats", "queue_stalls",
                "stats_frames",
            ):
                metrics.counter(f"fleet.{name}").inc(getattr(report, name))
            report.spans = self.recorder.events
            report.metrics_snapshot = metrics.snapshot()
        return report

    # ---- anti-entropy (child side state, parent side responder) ----

    def on_hello(self, hello: Hello) -> None:
        last = self.peer_generation.get(hello.src, 0)
        self.peer_generation[hello.src] = hello.generation
        if hello.generation > max(last, 1):
            self._start_resyncs(hello.src)

    def _send_control(self, node: int, frame) -> None:
        """A resync frame toward ``node``'s owner, past backpressure."""
        self.report.resync_frames += 1
        self.routes[node].queue.put_nowait(frame)

    def _start_resyncs(self, peer: int) -> None:
        """A peer's connection generation jumped: pull what its parents
        forwarded while the old connection was dying."""
        owner, graph = self.plan.owner, self.network.setup.graph
        for child in sorted(self.local_repos):
            repo = self.network.repositories[child]
            # One session per (child, parent) pair; a child's items can
            # split across parents, so group by parent.
            by_parent: dict[int, list[int]] = {}
            for item_id in repo.receive_c:
                parent = graph.nodes[child].parent_for.get(item_id)
                if owner.get(parent) == peer:
                    by_parent.setdefault(parent, []).append(item_id)
            for parent, items in sorted(by_parent.items()):
                if (child, parent) in self.sessions:
                    continue  # an earlier jump's session is still running
                session = ChildSession(
                    child, parent, {i: repo.seqs.get(i, 0) for i in items}
                )
                self.sessions[(child, parent)] = session
                self._send_control(parent, session.next_request())

    def _parent_heads_for(self, parent: int, child: int) -> dict[int, tuple[int, float]]:
        heads: dict[int, tuple[int, float]] = {}
        for item_id, group in self.network._sender(parent).edges.items():
            for i, dependent in enumerate(group.child):
                if dependent == child:
                    heads[item_id] = (group.last_seq[i], group.last[i])
        return heads

    def _finish_session(self, key: tuple[int, int], session: ChildSession) -> None:
        child = key[0]
        repo = self.network.repositories[child]
        now = self.due.wall_now()
        for item_id, seq, value in session.missing:
            if seq > repo.seqs.get(item_id, 0):
                repo.seqs[item_id] = seq
                if item_id in repo.deliveries:
                    # A sync entry, not a delivery: the core keeps it
                    # from the pair's modeled clients.
                    self.network.reconfig.sync(child, item_id, now, value)
        self.network.counters.record_resync(
            session.cost.checks, session.cost.transferred
        )
        del self.sessions[key]
        self.push_if_idle()

    def on_control_frame(self, message) -> None:
        report = self.report
        if isinstance(message, ResyncRequest):
            view = ParentView(self._parent_heads_for(message.parent, message.child))
            self._send_control(message.child, view.respond(message))
        elif isinstance(message, ResyncResponse):
            key = (message.child, message.parent)
            session = self.sessions.get(key)
            if session is None:
                return  # stale response from a finished session
            report.resync_frames += 1
            session.absorb(message)
            if session.done:
                self._finish_session(key, session)
            else:
                request = session.next_request()
                if request is not None:
                    self._send_control(message.parent, request)
        elif isinstance(message, Stats):
            report.stats_frames += 1
            if self.metrics is not None:
                peer = message.src
                for name in ("sent", "delivered", "dropped", "pending"):
                    self.metrics.gauge(f"peer{peer}.{name}").set(
                        getattr(message, name)
                    )
        else:
            super().on_control_frame(message)
