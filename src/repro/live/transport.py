"""The two single-process wires that drive the sans-io live network.

Two drivers of one runtime (:mod:`repro.live.wire`, which states the
data path, the delivery convention and the loss-and-failure judgement),
each built on one network, with one contract -- ``run(duration)``
replays the workload and leaves the network's
:class:`~repro.core.metrics.CostCounters` conserved, ``messages ==
deliveries + drops``.  They differ in where a destination lives and
which clock releases the due queue, only;
:func:`~repro.live.harness.run_live` picks one by name:

- :class:`VirtualWire` (``inprocess``) -- every node lives here and the due
  queue is drained on its virtual clock: no link, no port, no event
  loop.  With the seeded topology delays a run is bit-reproducible for a
  fixed config seed, and bit-identical to the simulation, under loss,
  failures and adaptive rewiring too.
- :class:`TcpWire` (``tcp``, awaited) -- every node listens on its own localhost
  port, every hop is a row of a :class:`~repro.live.protocol.Forwards`
  frame over a real connection, and simulated time maps to the wall
  clock through ``time_scale`` (simulated seconds per wall second).
  Its links heartbeat and transparently reconnect severed connections
  with capped exponential backoff (a crash event severs the victim's
  connection for real), and messages still in flight when the
  quiescence budget runs out are counted as drops, keeping the
  conservation invariant exact.

Both execute churn, unplanned failures, adaptive rewiring and seeded
message loss, because the runtime does: it queues the control timeline
of the network's :class:`~repro.engine.reconfig.ReconfigurationCore`
ahead of the replay (the core makes every failover, resync and
rewiring decision) and judges every repository-plane row by the
engine's rule against the core's state -- a down link and then the
link's own Bernoulli draw at the send instant, a departed and then a
crashed destination at the arrival stamp -- whatever the wall clock
did to the frame on its way.  TCP applies an entry only once no row it
put on a link is still out, so the rows stamped before it go first.
The ``live_crosscheck`` table holds both, cell by cell, to the
simulation.
"""

from __future__ import annotations

import asyncio
import time
from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.live.wire import (
    QUIESCE_TIMEOUT_S,
    WireRuntime,
    reconcile,
    wall_factor,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (harness builds us)
    from repro.live.harness import LiveNetwork

__all__ = ["VirtualWire", "TcpWire"]


class VirtualWire(WireRuntime):
    """Virtual-time driver: deterministic, reproducible, fast.

    Every node is hosted here -- the route table stays empty -- so no
    row ever meets a link, a port or an event loop: the runtime's due
    queue is drained on its virtual clock.  Event ordering matches the
    simulation engine's (control before update before delivery at one
    instant, FIFO among deliveries), so two runs of a network are
    identical.
    """

    def run(self, duration: float | None = None) -> None:
        self.schedule_replay(duration)
        self.due.drain()
        del self.network, self.hosted  # a reference cycle: see TcpWire.run
        counters = self.counters
        if counters.messages != counters.deliveries + counters.drops:  # defensive
            raise SimulationError(f"in-process transport leaked messages: {counters}")


class TcpWire(WireRuntime):
    """Localhost TCP driver: every hop crosses a real socket.

    Every destination is remote, one link each, entered in the route
    table as it connects; a crash severs the
    victim's connection for real.  ``time_scale`` maps simulated to
    wall seconds (``600`` runs a 600 s trace in about one wall second);
    links probe every ``heartbeat_interval_s`` wall seconds on failure
    runs only (0 disables).  Once the replay is through, the run waits up to
    :data:`~repro.live.wire.QUIESCE_TIMEOUT_S` wall seconds (stretched
    at slow paces) for in-flight messages to land, as a control entry
    does; whatever remains is counted as dropped.
    """

    def __init__(
        self,
        network: "LiveNetwork",
        time_scale: float = 60.0,
        heartbeat_interval_s: float = 0.5,
    ) -> None:
        super().__init__(
            network,
            time_scale=time_scale,
            # Liveness probes matter where connections get severed.
            heartbeat_interval_s=(
                heartbeat_interval_s if network.reconfig.failures is not None else 0.0
            ),
        )
        self.replayed = asyncio.Event()
        self.quiet = asyncio.Event()

    async def run(self, duration: float | None = None) -> None:
        try:
            # One listening port and one link per destination node.
            # Every repository is one in the static d3g, and
            # failover can route to any of them over ancestor edges.
            for dst in sorted(self.hosted):
                self.routes[dst] = self.connect(
                    dst, await self.server.listen(self.host)
                )
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
        reconcile(self.counters)

    def settled(self) -> None:
        # Runs per delivery: the counts first, they are rarely equal.
        counters = self.counters
        if (
            counters.messages == counters.deliveries + counters.drops
            and self.replayed.is_set()
        ):
            self.quiet.set()

    def control(self, t: float, event) -> bool | None:
        # A row still out on a link (queued or written, not yet landed
        # or eaten) may be stamped before ``t``: wait for it to land.
        due, links = self.due, self.links.values()
        out = sum(link.taken + len(link.queue) for link in links) - self.landed
        waited = (due.wall_now() - t) / due.time_scale
        if out > 0 and waited < QUIESCE_TIMEOUT_S * wall_factor(due.time_scale):
            return False
        super().control(t, event)
        if event is not None and event.kind == "crash":
            # Sever the victim's connection for real; its link
            # reconnects on demand.
            self.links[event.repository].sever()

    def replay_finished(self) -> None:
        self.replayed.set()
        self.settled()

