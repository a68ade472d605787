"""Transports that drive the sans-io live network.

Two drivers of one runtime (:mod:`repro.live.wire`, which states the
data path, the delivery convention and the loss-and-failure judgement)
with one contract -- ``run(network, duration)`` replays the network's
workload and returns wire-level :class:`TransportStats` whose invariant
``sent == delivered + dropped`` always holds.  They differ in where a
destination lives and which clock releases the due queue, only:

- :class:`InProcessTransport` -- every node lives here and the due
  queue is drained on its virtual clock: no link, no port, no event
  loop.  With the seeded topology delays (plus optional seeded jitter)
  a run is bit-reproducible for a fixed config seed, and bit-identical
  to the simulation -- it consumes the *same* ``message-loss`` stream
  in the same order as the engine, under failures and adaptive
  rewiring too.  This is the transport the ``live_crosscheck``
  experiment validates the simulator against.
- :class:`TcpTransport` -- every node listens on its own localhost
  port, every hop is a row of a :class:`~repro.live.protocol.Forwards`
  frame over a real connection, and simulated time maps to the wall
  clock through ``time_scale`` (simulated seconds per wall second).
  Its links heartbeat and transparently reconnect severed connections
  with capped exponential backoff (a crash event severs the victim's
  connection for real), and messages still in flight when the
  quiescence budget runs out are counted as drops, keeping the
  conservation invariant exact.

Both execute unplanned failures and seeded message loss, because the
runtime does: it queues the control timeline of the network's
:class:`~repro.engine.reconfig.ReconfigurationCore` ahead of the replay
(the core makes every failover, resync and rewiring decision) and
judges every repository-plane row by the engine's rule against the
:class:`~repro.engine.failures.FailureSchedule`'s half-open windows --
a down link and then the Bernoulli draw at the send instant, a crashed
destination at the arrival stamp -- whatever the wall clock did to the
frame on its way.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError, SimulationError
from repro.live.wire import (
    QUIESCE_TIMEOUT_S,
    Link,
    WireRuntime,
    reconcile,
    wall_factor,
)
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

    Every node is hosted here, so no row ever meets a link, a port or
    an event loop: the runtime's due queue is drained on its virtual
    clock.  Event ordering matches the simulation engine's (control
    before update before delivery at one instant, FIFO among
    deliveries), and optional delivery jitter is drawn from a seeded
    stream, so two runs of the same network are bit-identical.
    """

    name = "inprocess"

    def __init__(self, jitter_ms: float = 0.0) -> None:
        if jitter_ms < 0:
            raise ConfigurationError(f"jitter_ms must be >= 0, got {jitter_ms!r}")
        self.jitter_ms = jitter_ms

    def run(self, network: "LiveNetwork", duration: float | None = None) -> TransportStats:
        return _VirtualWire(self, network).run(duration)


class _VirtualWire(WireRuntime):
    """Every destination lives here; the clock is the due queue's own."""

    def __init__(self, transport: InProcessTransport, network: "LiveNetwork") -> None:
        super().__init__(network, TransportStats(), src=network.source_node.node)
        if transport.jitter_ms > 0.0:
            seed, jitter_ms = network.setup.config.seed, transport.jitter_ms
            random = RandomStreams(seed).stream("live-jitter").random
            self.jitter = lambda: random() * jitter_ms / 1000.0

    def route(self, dst: int) -> None:
        return None

    def run(self, duration: float | None) -> TransportStats:
        self.schedule_replay(duration)
        self.due.drain()
        del self.network, self.hosted  # a reference cycle: see _TcpWire.run
        if not self.stats.conserved:  # defensive: a drained queue cannot leak
            raise SimulationError(f"in-process transport leaked messages: {self.stats}")
        return self.stats


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
    heartbeat_interval_s: float = 0.5

    def __post_init__(self) -> None:
        if self.time_scale <= 0:
            raise ConfigurationError(
                f"time_scale must be positive, got {self.time_scale!r}"
            )
        if self.heartbeat_interval_s < 0:
            raise ConfigurationError(
                f"heartbeat_interval_s must be >= 0, got {self.heartbeat_interval_s!r}"
            )

    def run(self, network: "LiveNetwork", duration: float | None = None) -> TransportStats:
        return asyncio.run(_TcpWire(self, network).run(duration))


class _TcpWire(WireRuntime):
    """Every destination is remote, one link each, and a crash severs
    the victim's connection for real."""

    def __init__(self, transport: TcpTransport, network: "LiveNetwork") -> None:
        super().__init__(
            network,
            TransportStats(),
            src=network.source_node.node,
            time_scale=transport.time_scale,
            host=transport.host,
            # Liveness probes matter where connections get severed.
            heartbeat_interval_s=(
                transport.heartbeat_interval_s
                if network.reconfig.failures is not None
                else 0.0
            ),
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
            # (Failure events only on its control timeline: run_live
            # refuses adaptive ticks here.)
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

    def settled(self) -> None:
        if self.replayed.is_set() and self.stats.in_flight == 0:
            self.quiet.set()

    def control(self, t: float, event) -> None:
        super().control(t, event)
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
    jitter_ms: float = 0.0,
    time_scale: float = 60.0,
    heartbeat_interval_s: float = 0.5,
):
    """Build a transport by registry name (``inprocess`` or ``tcp``).

    Raises:
        ConfigurationError: on an unknown transport name.
    """
    if name == InProcessTransport.name:
        return InProcessTransport(jitter_ms=jitter_ms)
    if name == TcpTransport.name:
        return TcpTransport(
            time_scale=time_scale, heartbeat_interval_s=heartbeat_interval_s
        )
    raise ConfigurationError(
        f"unknown live transport {name!r}; choose from "
        f"{[InProcessTransport.name, TcpTransport.name]}"
    )
