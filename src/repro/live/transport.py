"""Transports that drive the sans-io live network.

Two implementations with one contract -- ``run(network, duration)``
executes the network's workload replay and returns wire-level
:class:`TransportStats` whose conservation invariant
``sent == delivered + dropped`` always holds:

- :class:`InProcessTransport` -- deterministic virtual time.  Deliveries
  run through the same event merge the batch simulation kernel uses
  (:class:`~repro.sim.kernel.BatchKernel`), with the seeded topology
  delays (plus optional seeded jitter), so a run is bit-reproducible
  for a fixed config seed.  This is the transport the
  ``live_crosscheck`` experiment validates the simulator against.
- :class:`TcpTransport` -- real localhost sockets.  A thin driver of
  the shared socket runtime (:mod:`repro.live.wire`, which states the
  delivery convention): every node listens on its own port, every hop
  is a row of a :class:`~repro.live.protocol.Forwards` frame over a
  localhost connection, and simulated time maps to the wall clock through
  ``time_scale`` (simulated seconds per wall second).  Messages still
  in flight when the quiescence budget runs out are counted as drops,
  keeping the conservation invariant exact.

Both transports execute unplanned failures and seeded message loss.
They apply the control timeline of the network's
:class:`~repro.engine.reconfig.ReconfigurationCore` (the core makes
every failover, resync and rewiring decision; the transport only
delivers the instants): repository-plane frames toward a crashed node
or over a down link become drops (charged into the network's
:class:`~repro.core.metrics.CostCounters` like the engine's), and
``loss_probability > 0`` Bernoulli-drops frames from a seeded stream.
The in-process transport merges the timeline into its kernel's schedule
ahead of the replay and reads the core's live ``crashed`` /
``down_links`` sets;
it consumes the *same* ``message-loss`` stream in the same order as the
engine, so a failure or adaptive run is still bit-reproducible.  The
TCP transport queues the timeline on the runtime's due queue, likewise
ahead of the replay, and judges each frame by its logical arrival time
against the :class:`~repro.engine.failures.FailureSchedule`'s half-open
windows (:meth:`~repro.engine.failures.FailureSchedule.crashed_at` /
:meth:`~repro.engine.failures.FailureSchedule.link_down_at`) rather
than by mutable-set timing; its links additionally heartbeat and
transparently reconnect severed connections with capped exponential
backoff (a crash event severs the victim's connection for real).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError, SimulationError
from repro.live.wire import (
    QUIESCE_TIMEOUT_S,
    Link,
    WireRuntime,
    reconcile,
    wall_factor,
)
from repro.sim.kernel import BatchKernel
from repro.sim.rng import RandomStreams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (harness builds us)
    from repro.live.harness import LiveNetwork

__all__ = ["TransportStats", "InProcessTransport", "TcpTransport", "make_transport"]


@dataclass
class TransportStats:
    """Wire-level accounting of one live run.

    Attributes:
        sent: Messages handed to the transport (repository plane and
            client plane alike).
        delivered: Messages that reached their destination node.
        dropped: Messages the transport gave up on: failure-schedule and
            Bernoulli-loss drops on either transport, plus whatever the
            TCP quiescence timeout abandons.
        heartbeats: TCP liveness probes written; outside the
            sent/delivered/dropped conservation (probes carry no data).
        reconnects: TCP connections re-established after a severance.
    """

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    heartbeats: int = 0
    reconnects: int = 0

    @property
    def in_flight(self) -> int:
        """Messages sent but neither delivered nor dropped yet."""
        return self.sent - self.delivered - self.dropped

    @property
    def conserved(self) -> bool:
        """The invariant every run must end with."""
        return self.sent == self.delivered + self.dropped


class InProcessTransport:
    """Virtual-time driver: deterministic, reproducible, fast.

    Replays the workload on a fresh :class:`~repro.sim.kernel.
    BatchKernel`: the control timeline and the source schedule are its
    static schedule, the rows in flight its heap.  Event ordering
    matches the simulation engine's (control before update before
    delivery at one instant, FIFO among deliveries), and optional
    delivery jitter is drawn from a seeded stream, so two runs of the
    same network are bit-identical.
    """

    name = "inprocess"

    def __init__(
        self, jitter_ms: float = 0.0, seed: int = 0, loss_probability: float = 0.0
    ) -> None:
        if jitter_ms < 0:
            raise ConfigurationError(f"jitter_ms must be >= 0, got {jitter_ms!r}")
        if not 0.0 <= loss_probability < 1.0:
            raise ConfigurationError(
                f"loss_probability must be in [0, 1), got {loss_probability!r}"
            )
        self.jitter_ms = jitter_ms
        self.seed = seed
        self.loss_probability = loss_probability

    def run(self, network: "LiveNetwork", duration: float | None = None) -> TransportStats:
        stats = TransportStats()
        core = network.reconfig
        crashed, down = core.crashed, core.down_links
        counters, observer = network.counters, network.observer
        repositories, clients = network.repositories, network.clients
        jitter_rng = (
            RandomStreams(self.seed).stream("live-jitter")
            if self.jitter_ms > 0.0
            else None
        )
        # The engine's stream, consumed in the engine's order (per
        # forwarded repository-plane message, child order, after the
        # link filter), so a loss run matches the simulation bit for bit.
        loss_rng = (
            RandomStreams(self.seed).stream("message-loss")
            if self.loss_probability > 0.0
            else None
        )

        def drop(row: list, now: float, reason: str) -> None:
            stats.dropped += 1
            counters.record_drop()
            if observer is not None:
                dst, _arrival_s, item_id, _value, _tag, seq, src = row
                observer.on_drop(seq - 1, item_id, now, src, dst, reason)

        def dispatch(rows: list[list], now: float) -> None:
            stats.sent += len(rows)
            for row in rows:
                dst = row[0]
                if dst in repositories:
                    if down and (row[6], dst) in down:
                        # Partition: decided before the loss draw, like
                        # the engine, so the Bernoulli stream is only
                        # consumed for frames that enter the network.
                        drop(row, now, "partition")
                        continue
                    if (
                        loss_rng is not None
                        and loss_rng.random() < self.loss_probability
                    ):
                        drop(row, now, "loss")
                        continue
                arrival = row[1]
                if jitter_rng is not None:
                    arrival += jitter_rng.random() * self.jitter_ms / 1000.0
                push(arrival, row)

        def source_update(t: float, item_id: int, value: float) -> None:
            dispatch(network.source_node.on_update(item_id, value, t), t)

        # One stable sort merges the two time-ordered lists.  Controls
        # are listed first, so a control event (failure, drift tick)
        # applies ahead of an update at the same instant, and the kernel
        # serves its schedule ahead of its heap: control < update <
        # delivery, the engine's tie-break.
        controls = [
            (t, core.apply, event)
            for t, event in core.timeline(network.span(duration))
        ]
        updates = [
            (t, source_update, item_id, value)
            for t, item_id, value in network.source_schedule(duration)
        ]
        schedule = sorted(controls + updates, key=itemgetter(0))
        kernel = BatchKernel([entry[0] for entry in schedule])
        push = kernel.push  # not the bare heap: keeps the clock guard
        for unit in kernel.drain():
            if type(unit) is int:
                t, action, *args = schedule[unit]
                action(t, *args)
                continue
            now, _order, row = unit
            dst, _arrival_s, item_id, value, tag, seq, _src = row
            if dst in crashed:
                # Crashed while the frame was in flight: a drop, judged
                # at arrival time exactly like the engine's _on_delivery.
                drop(row, now, "crash")
                continue
            stats.delivered += 1
            node = repositories.get(dst) or clients[dst]
            dispatch(node.receive(item_id, value, tag, seq, now), now)
        if not stats.conserved:  # defensive: a drained kernel cannot leak
            raise SimulationError(
                f"in-process transport leaked messages: {stats}"
            )
        return stats


@dataclass
class TcpTransport:
    """Localhost TCP driver: every hop crosses a real socket.

    ``time_scale`` maps simulated seconds to wall seconds (``600`` runs
    a 600 s trace in about one wall second).  Once the replay is
    through, the run waits up to
    :data:`~repro.live.wire.QUIESCE_TIMEOUT_S` wall seconds (stretched
    at slow paces) for in-flight messages to land; whatever remains is
    counted as dropped.
    """

    name = "tcp"
    time_scale: float = 60.0
    host: str = "127.0.0.1"
    loss_probability: float = 0.0
    seed: int = 0
    heartbeat_interval_s: float = 0.5

    def __post_init__(self) -> None:
        if self.time_scale <= 0:
            raise ConfigurationError(
                f"time_scale must be positive, got {self.time_scale!r}"
            )
        if not 0.0 <= self.loss_probability < 1.0:
            raise ConfigurationError(
                f"loss_probability must be in [0, 1), got {self.loss_probability!r}"
            )
        if self.heartbeat_interval_s < 0:
            raise ConfigurationError(
                f"heartbeat_interval_s must be >= 0, got {self.heartbeat_interval_s!r}"
            )

    def run(self, network: "LiveNetwork", duration: float | None = None) -> TransportStats:
        return asyncio.run(_TcpWire(self, network).run(duration))


class _TcpWire(WireRuntime):
    """Every destination is remote, one link each; adds the seeded loss
    and failure-window judgement and applies the control timeline."""

    def __init__(self, transport: TcpTransport, network: "LiveNetwork") -> None:
        self.schedule = network.reconfig.failures
        super().__init__(
            network,
            TransportStats(),
            hosted={*network.repositories, *network.clients},
            src=network.source_node.node,
            time_scale=transport.time_scale,
            host=transport.host,
            # Liveness probes matter where connections get severed.
            heartbeat_interval_s=(
                transport.heartbeat_interval_s if self.schedule is not None else 0.0
            ),
        )
        self.repo_ids = set(network.repositories)
        self.loss_probability = transport.loss_probability
        self.loss_rng = (
            RandomStreams(transport.seed).stream("message-loss")
            if transport.loss_probability > 0.0
            else None
        )
        self.replayed = asyncio.Event()
        self.quiet = asyncio.Event()

    async def run(self, duration: float | None) -> TransportStats:
        network, stats = self.network, self.stats
        try:
            # One listening port and one link per destination node.
            # Every repository and client is one in the static d3g, and
            # failover can route to any of them over ancestor edges.
            for dst in sorted(self.hosted):
                self.connect(dst, await self.server.listen(self.host))
            # Queued ahead of the replay so a control event and an
            # update or delivery at the same instant apply the control
            # event first -- the engine's tie-break.  (Failure events
            # only: run_live refuses adaptive ticks here.)
            for t, event in network.reconfig.timeline(network.span(duration)):
                self.due.push(t, self.control, t, event)
            self.schedule_replay(duration, self.replay_finished)
            self.start(time.monotonic())
            # It only ends early by an action raising: stop waiting then.
            self._due_task.add_done_callback(
                lambda _task: (self.replayed.set(), self.quiet.set())
            )
            await self.replayed.wait()
            try:
                await asyncio.wait_for(
                    self.quiet.wait(),
                    timeout=QUIESCE_TIMEOUT_S * wall_factor(self.due.time_scale),
                )
            except (TimeoutError, asyncio.TimeoutError):
                pass
            self.check()
        finally:
            await self.close()
            # The closed links and server still call back into this
            # object (a reference cycle); let the network and the node
            # table go with the run rather than at some later collector
            # pass -- anything cached here that reaches a node would
            # keep one network's delivery logs alive past its run.
            del self.network, self.hosted
        stats.dropped = reconcile(
            stats.sent, stats.delivered, stats.dropped, network.counters
        )
        return stats

    def route(self, dst: int) -> Link:
        return self.links[dst]

    def lost_on_send(self, row: list) -> str | None:
        # Bernoulli loss; link-dead frames are skipped first so the
        # stream is only consumed for frames that would enter the
        # network (the engine's order).
        if (
            self.loss_rng is not None
            and row[0] in self.repo_ids
            and not (
                self.schedule is not None
                and self.schedule.link_down_at(row[6], row[0], row[1])
            )
            and self.loss_rng.random() < self.loss_probability
        ):
            return "loss"
        return None

    def lost_on_arrival(self, row: list) -> str | None:
        # Judged by the frame's logical arrival against the schedule's
        # availability windows -- deterministic whatever the wall clock
        # did to the frame on its way.
        schedule = self.schedule
        if schedule is None or row[0] not in self.repo_ids:
            return None
        dst, arrival_s, src = row[0], row[1], row[6]
        if schedule.crashed_at(dst, arrival_s):
            return "crash"
        if schedule.link_down_at(src, dst, arrival_s):
            return "partition"
        return None

    def settled(self) -> None:
        if self.replayed.is_set() and self.stats.in_flight == 0:
            self.quiet.set()

    def control(self, t: float, event) -> None:
        self.network.reconfig.apply(t, event)
        if event.kind == "crash":
            # Sever the victim's connection for real; its link
            # reconnects on demand.
            self.links[event.repository].sever()

    def replay_finished(self) -> None:
        self.replayed.set()
        self.settled()


def make_transport(
    name: str,
    *,
    seed: int = 0,
    jitter_ms: float = 0.0,
    time_scale: float = 60.0,
    loss_probability: float = 0.0,
    heartbeat_interval_s: float = 0.5,
):
    """Build a transport by registry name (``inprocess`` or ``tcp``).

    Raises:
        ConfigurationError: on an unknown transport name.
    """
    if name == InProcessTransport.name:
        return InProcessTransport(
            jitter_ms=jitter_ms, seed=seed, loss_probability=loss_probability
        )
    if name == TcpTransport.name:
        return TcpTransport(
            time_scale=time_scale,
            loss_probability=loss_probability,
            seed=seed,
            heartbeat_interval_s=heartbeat_interval_s,
        )
    raise ConfigurationError(
        f"unknown live transport {name!r}; choose from "
        f"{[InProcessTransport.name, TcpTransport.name]}"
    )
