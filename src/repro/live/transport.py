"""The two single-process wires that drive the sans-io live network.

Two drivers of one runtime (:mod:`repro.live.wire`, which states the
data path, the delivery convention and the loss-and-failure judgement),
each built on one network, with one contract -- ``run(duration)``
replays the workload and returns wire-level :class:`TransportStats`
whose invariant ``sent == delivered + dropped`` always holds.  They
differ in where a destination lives and which clock releases the due
queue, only; :func:`~repro.live.harness.run_live` picks one by name:

- :class:`VirtualWire` (``inprocess``) -- every node lives here and the due
  queue is drained on its virtual clock: no link, no port, no event
  loop.  With the seeded topology delays (plus optional seeded jitter)
  a run is bit-reproducible for a fixed config seed, and bit-identical
  to the simulation -- it consumes the *same* ``message-loss`` stream
  in the same order as the engine, under failures and adaptive
  rewiring too.  This is the transport the ``live_crosscheck``
  experiment validates the simulator against.
- :class:`TcpWire` (``tcp``, awaited) -- every node listens on its own localhost
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

from repro.errors import SimulationError
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

__all__ = ["TransportStats", "VirtualWire", "TcpWire"]


@dataclass
class TransportStats:
    """Wire-level accounting of one live run.

    Attributes:
        sent: Messages handed to the transport.
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


class VirtualWire(WireRuntime):
    """Virtual-time driver: deterministic, reproducible, fast.

    Every node is hosted here, so no row ever meets a link, a port or
    an event loop: the runtime's due queue is drained on its virtual
    clock.  Event ordering matches the simulation engine's (control
    before update before delivery at one instant, FIFO among
    deliveries), and optional delivery jitter (up to ``jitter_ms``) is
    drawn from a seeded stream, so two runs of a network are identical.
    """

    def __init__(self, network: "LiveNetwork", jitter_ms: float = 0.0) -> None:
        super().__init__(network, TransportStats(), src=network.source_node.node)
        if jitter_ms > 0.0:
            seed = network.setup.config.seed
            random = RandomStreams(seed).stream("live-jitter").random
            self.jitter = lambda: random() * jitter_ms / 1000.0

    def route(self, dst: int) -> None:
        return None

    def run(self, duration: float | None = None) -> TransportStats:
        self.schedule_replay(duration)
        self.due.drain()
        del self.network, self.hosted  # a reference cycle: see TcpWire.run
        if not self.stats.conserved:  # defensive: a drained queue cannot leak
            raise SimulationError(f"in-process transport leaked messages: {self.stats}")
        return self.stats


class TcpWire(WireRuntime):
    """Localhost TCP driver: every hop crosses a real socket.

    Every destination is remote, one link each; a crash severs the
    victim's connection for real.  ``time_scale`` maps simulated to
    wall seconds (``600`` runs a 600 s trace in about one wall second);
    links probe every ``heartbeat_interval_s`` wall seconds on failure
    runs only (0 disables).  Once the replay is through, the run waits up to
    :data:`~repro.live.wire.QUIESCE_TIMEOUT_S` wall seconds (stretched
    at slow paces) for in-flight messages to land; whatever remains is
    counted as dropped.
    """

    def __init__(
        self,
        network: "LiveNetwork",
        time_scale: float = 60.0,
        heartbeat_interval_s: float = 0.5,
    ) -> None:
        super().__init__(
            network,
            TransportStats(),
            src=network.source_node.node,
            time_scale=time_scale,
            # Liveness probes matter where connections get severed.
            heartbeat_interval_s=(
                heartbeat_interval_s if network.reconfig.failures is not None else 0.0
            ),
        )
        self.replayed = asyncio.Event()
        self.quiet = asyncio.Event()

    async def run(self, duration: float | None = None) -> TransportStats:
        network, stats = self.network, self.stats
        try:
            # One listening port and one link per destination node.
            # Every repository is one in the static d3g, and
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

