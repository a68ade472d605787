"""The runtime all three live planes drive.

The in-process and TCP wires (:mod:`repro.live.transport`) and the
fleet worker (:mod:`repro.fleet.worker`) run one data path; this module
states it once, and each plane says two things -- where a destination
lives (a ``dst -> Link`` table, :attr:`WireRuntime.routes`) and which
clock releases the due queue:

- :class:`DueQueue` -- the simulator's callback heap
  (:class:`~repro.sim.kernel.Simulator`) holding control events, source
  updates and deliveries, keyed by simulated due time and released in
  ``(due, push order)``, against the wall clock (:meth:`DueQueue.run`)
  or on the simulator's virtual one (:meth:`DueQueue.drain`);
- :class:`SendQueue` and :class:`Link` -- an outbound connection behind
  high-watermark backpressure: handshake, pump (whose unit of I/O is
  what is queued right now, not one frame), heartbeat, reconnect, close;
- :class:`FrameServer` -- the inbound loops, one socket read at a time,
  which reject a bad connection and never the run;
- :class:`WireRuntime` -- the data path over those pieces around one
  :class:`~repro.live.harness.LiveNetwork`, the loss-and-failure
  judgement included.  Each plane subclasses it to fill the route
  table and say what is real about its clock or its sockets.

One delivery is one lean step on every plane: the due queue releases
the row, :meth:`WireRuntime.deliver` judges it and has the node process
it (one call: the node chains its FIFO departures and charges its
counters in place), and only a node that emitted rows has them
dispatched -- each judged, looked up in the route table and pushed onto
the due heap or a link's queue in the dispatch loop itself, with no
call per row.

Loss, failures and departures are judged once, here, by the engine's
rule: a repository-plane row meets a down link and then its link's own
seeded draw at the instant it is *sent* (:meth:`WireRuntime.dispatch`)
and a departed or crashed destination at the instant it *arrives*
(:meth:`WireRuntime.deliver`); a row in flight when its link goes down
is delivered on every plane.  Both read the core's ``down_links``,
``departed`` and ``crashed`` sets as the due queue releases the row,
after every control entry stamped at or before it and no other.

One delivery convention holds on every socket, and one message shape
from end to end: a message is the seven-field row ``[dst, arrival_s,
item_id, value, tag, seq, src]`` the sending node emitted -- the
destination node and the absolute simulated ``arrival_s`` it computed
included -- and that same list is what the due queue holds, what a link
queues and what a :class:`~repro.live.protocol.Forwards` frame packs;
the receiver unpacks it as a tuple of the same fields, checks what the
record cannot state and queues it again.  The sender
never holds it back -- a link's pump writes everything queued as one
frame each time it wakes, one row at a paced ``time_scale`` and a
hundred when the run is behind; the *receiver* holds it until
``arrival_s`` comes due against the run's epoch, and the node then
processes it *at that logical stamp*, not at the wall reading.
Coherency filtering, queueing and fidelity scoring therefore see the
computed dissemination schedule; what the sockets contribute is what is
real about them -- framing, backpressure, connection loss and
reconnects, and frames that never land.  Those are reconciled into
drops on both accounting planes by :func:`reconcile` when the run ends.

The wall budgets below absorb scheduler and socket slop.  No caller
ever needed a second value for any of them, so they are constants, each
next to the loop that reads it.
"""

from __future__ import annotations

import asyncio
import contextlib
import heapq
import itertools
import time
from math import inf, isfinite
from typing import TYPE_CHECKING, Callable

from repro.core.metrics import CostCounters
from repro.errors import ConfigurationError, SimulationError
from repro.live.protocol import (
    Bye,
    Forwards,
    FrameAssembler,
    Heartbeat,
    Hello,
    Message,
    ProtocolError,
    Stats,
    check_version,
    encode_message,
    encode_rows,
)
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (harness imports transport)
    from repro.live.harness import LiveNetwork

__all__ = [
    "QUIESCE_TIMEOUT_S",
    "wall_factor",
    "reconcile",
    "DueQueue",
    "SendQueue",
    "encode_backlog",
    "Link",
    "FrameServer",
    "WireRuntime",
]

#: Wall seconds a run waits, once the source replay is through, for
#: in-flight frames to land; what is still out then reconciles as drops.
#: Stated at the 60x default pace and stretched by :func:`wall_factor`.
QUIESCE_TIMEOUT_S = 30.0

#: Upper bound of :func:`wall_factor`, so a pathological time scale
#: cannot hang a run for hours.
WALL_STRETCH_CAP = 20.0


def wall_factor(time_scale: float) -> float:
    """How far a slow pace stretches the wall budgets.

    In-flight wall times grow as ``1 / time_scale``; budgets written
    for the 60x default grow with them, up to :data:`WALL_STRETCH_CAP`.
    """
    return min(WALL_STRETCH_CAP, max(1.0, 60.0 / time_scale))


def reconcile(sent: int, delivered: int, dropped: int, counters: CostCounters) -> int:
    """End-of-run accounting: whatever never landed is a drop.

    Returns the wire-level drop count that makes ``sent == delivered +
    dropped`` exact, and charges the repository plane's residual into
    ``counters.drops`` so ``messages == deliveries + drops`` is too.

    Raises:
        SimulationError: when more was delivered than sent on either
            plane -- double counting no reconciliation should hide.
    """
    if sent < delivered + dropped:
        raise SimulationError(
            f"delivered more than was sent: sent={sent} "
            f"delivered={delivered} dropped={dropped}"
        )
    residual = counters.messages - counters.deliveries - counters.drops
    if residual < 0:
        raise SimulationError(
            f"repositories over-delivered: messages={counters.messages} "
            f"deliveries={counters.deliveries} drops={counters.drops}"
        )
    counters.drops += residual
    return sent - delivered


class DueQueue(Simulator):
    """The callback heap with a wall clock beside its virtual one.

    A plain FIFO would let one long-delay frame head-of-line-block
    frames due sooner; the heap releases each action at its own due
    time, ties in push order (per-edge FIFO preserved).  Heap, push
    counter, guard and virtual clock are :class:`~repro.sim.kernel.
    Simulator`'s: :meth:`push` is ``schedule_at`` and :meth:`drain` is
    its ``run``, which jumps from one due time to the next.  The
    virtual clock starts at ``-inf`` and only :meth:`drain` moves it;
    :meth:`run` releases the same heap in the same order against the
    wall clock and never moves it, so a frame that lands late is due in
    the past and simply released at once.  Both count what they release
    in ``events_processed``.

    Actions are plain calls.  One may decline by returning ``False``:
    :meth:`run` keeps it at its own key, releasing nothing behind it,
    until the next :meth:`wake` or :data:`QUIESCE_TIMEOUT_S` (stretched
    by :func:`wall_factor`) later.  The one thing a producer ever waits
    for is a send queue at its high watermark, and the waiting happens
    in :meth:`run`, between actions: one that fills a queue names it
    (:meth:`hold`), and nothing further is released until that queue's
    pump has taken the backlog -- producers stall as a group, and a
    queue overshoots by at most what one action emits.  The loop sees
    an action's own pushes when the action returns; a push from another
    task must :meth:`wake` it.

    The runtime's row loops push deliveries onto the heap themselves,
    ``heappush(_heap, (due, _seq(), action, (row,)))`` with :meth:`push`'s
    guard per row, and leave a row that fails the guard to :meth:`push`,
    which refuses it with its own error.
    """

    push = Simulator.schedule_at
    drain = Simulator.run

    def __init__(self, time_scale: float = 1.0) -> None:
        super().__init__()
        self.now = -inf
        #: Simulated seconds per wall second.
        self.time_scale = time_scale
        #: ``time.monotonic()`` reading that is simulated time zero; the
        #: driver sets it before :meth:`run` (fleet workers share one).
        self.epoch = 0.0
        self._wakeup = asyncio.Event()
        self._held: set[SendQueue] = set()

    def wall_now(self) -> float:
        """The wall clock read in simulated seconds."""
        return (time.monotonic() - self.epoch) * self.time_scale

    def latest(self) -> float:
        """The furthest due time queued (0 when empty)."""
        return max((entry[0] for entry in self._heap), default=0.0)

    def wake(self) -> None:
        """Have :meth:`run` look at the heap again (a push from another
        task may be due sooner than what it sleeps toward)."""
        self._wakeup.set()

    def hold(self, queue: "SendQueue") -> None:
        """Release no further action until ``queue``'s backlog is taken."""
        self._held.add(queue)

    async def run(self) -> None:
        """Release actions in ``(due, push order)`` against the wall
        clock until cancelled."""
        heap, wakeup, held = self._heap, self._wakeup, self._held
        while True:
            delay = None  # empty: sleep until the first wake
            if heap:
                delay = self.epoch + heap[0][0] / self.time_scale - time.monotonic()
            if delay is not None and delay <= 0:
                due, seq, action, args = heapq.heappop(heap)
                if action(*args) is not False:
                    self.events_processed += 1
                    while held:
                        await held.pop().writable()
                    continue
                heapq.heappush(heap, (due, seq, action, args))
                delay = QUIESCE_TIMEOUT_S * wall_factor(self.time_scale)
            # Sleep toward the earliest due action, but wake early if a
            # new (possibly earlier-due) one arrives; re-evaluate the
            # heap top either way.
            wakeup.clear()
            try:
                await asyncio.wait_for(wakeup.wait(), timeout=delay)
            except (TimeoutError, asyncio.TimeoutError):
                pass


#: Send-queue depth at which producers block until the pump takes the
#: backlog.
QUEUE_HIGH = 256


class SendQueue:
    """FIFO with high-watermark backpressure, emptied a backlog at a time.

    ``asyncio.Queue(maxsize=n)`` blocks producers the moment the queue
    is full and wakes them one slot at a time, which under a bursty
    source turns into lockstep producer/consumer ping-pong.  Here
    producers run freely until *high*, then stall as a group until the
    pump takes the whole backlog for its next write.  The stall counter
    shows where backpressure actually bit.  A producer that can wait
    calls :meth:`put`; the runtime's are plain calls, so it enqueues
    with :meth:`put_nowait` and its due queue waits (:meth:`writable`).
    """

    def __init__(self, high: int = QUEUE_HIGH) -> None:
        if high < 1:
            raise ConfigurationError(f"high watermark must be >= 1, got {high!r}")
        self.high = high
        #: Times a producer blocked on the high watermark.
        self.stalls = 0
        self._items: list = []
        self._writable = asyncio.Event()
        self._writable.set()
        self._readable = asyncio.Event()

    def __len__(self) -> int:
        return len(self._items)

    async def writable(self) -> None:
        """Wait, counting a stall, while the backlog sits at the watermark."""
        if not self._writable.is_set():
            self.stalls += 1
            await self._writable.wait()

    async def put(self, item) -> None:
        """Enqueue, blocking while the backlog sits at the watermark."""
        await self.writable()
        self.put_nowait(item)

    def put_nowait(self, item) -> bool:
        """Enqueue without ever blocking (control frames jump
        backpressure); true when the backlog now sits at the watermark."""
        items = self._items
        items.append(item)
        if len(items) == 1:  # was empty: wake the pump
            self._readable.set()
        if len(items) >= self.high:
            self._writable.clear()
            return True
        return False

    async def take(self) -> list:
        """Everything queued, oldest first, waiting for an item when
        empty; stalled producers resume."""
        await self._readable.wait()
        self._readable.clear()
        backlog, self._items = self._items, []
        self._writable.set()
        return backlog


def encode_backlog(backlog: list) -> bytes:
    """The bytes of one write: everything a link had queued, in order,
    each run of consecutive messages (rows, plain lists) as one packed
    ``forwards`` frame (:func:`~repro.live.protocol.encode_rows`) and
    the control frames between the runs in their place."""
    frames: list[bytes] = []
    for kind, run in itertools.groupby(backlog, type):
        if kind is list:
            frames.append(encode_rows(run))
        else:
            frames.extend(map(encode_message, run))
    return b"".join(frames)


#: Connect retry policy: this many attempts, the pause before the next
#: one starting here and doubling each time.
RECONNECT_ATTEMPTS = 5
RECONNECT_BACKOFF_S = 0.05


class Link:
    """One outbound connection to a peer's :class:`FrameServer`.

    Messages (rows, as the nodes emit them) and control frames queue
    in :attr:`queue`; each time the pump task wakes it writes the
    whole backlog as one write (:func:`encode_backlog`).  The connection
    opens on first use and reopens, with a bumped ``Hello.generation``,
    whenever it is found severed.  Every message of a write the wire
    ate (reconnect exhausted, or severed mid-write -- the receiver never
    parses a partial frame) is handed to ``on_drop``, in order.

    Args:
        on_drop: Called with each message the wire ate.
        heartbeat_interval_s: Idle-probe period (0 disables).
        metrics: Optional metrics registry (traced runs): queue-depth
            gauge and heartbeat flush-latency histogram.
        telemetry: Optional frame factory; its frame rides on every
            heartbeat (traced runs).
    """

    def __init__(
        self,
        src: int,
        peer: int,
        host: str,
        port: int,
        on_drop: Callable[[list], None],
        heartbeat_interval_s: float = 0.0,
        metrics=None,
        telemetry: Callable[[], Message] | None = None,
    ) -> None:
        self.src, self.peer, self.host, self.port = src, peer, host, port
        self.queue = SendQueue()
        #: Connections opened so far (written into each ``Hello``), and
        #: how many of them re-established a severed one.
        self.generation = self.reconnects = 0
        #: Liveness probes written (outside wire conservation).
        self.heartbeats = 0
        #: Messages the pump has taken off :attr:`queue` for a write.
        self.taken = 0
        self._on_drop = on_drop
        self._metrics = metrics
        self._telemetry = telemetry
        self._writer: asyncio.StreamWriter | None = None
        self._connecting = asyncio.Lock()
        self._tasks = [asyncio.create_task(self._pump(), name=f"link-{src}-{peer}")]
        if heartbeat_interval_s > 0:
            self._tasks.append(
                asyncio.create_task(
                    self._heartbeat(heartbeat_interval_s), name=f"link-{src}-{peer}-hb"
                )
            )

    def sever(self) -> None:
        """Close the connection under the link (fault injection); the
        next write reconnects."""
        if self._writer is not None and not self._writer.is_closing():
            self._writer.close()

    async def _connect(self) -> asyncio.StreamWriter:
        """The open connection, reopened when severed.

        Raises:
            ConnectionError: when every attempt failed.
        """
        # One opener at a time: pump and heartbeat both land here when
        # the connection dies, and a second socket would leak the first.
        async with self._connecting:
            if self._writer is not None and not self._writer.is_closing():
                return self._writer
            for attempt in range(RECONNECT_ATTEMPTS):
                try:
                    _reader, writer = await asyncio.open_connection(
                        self.host, self.port
                    )
                except OSError:
                    await asyncio.sleep(RECONNECT_BACKOFF_S * (2 ** attempt))
                    continue
                self._writer = writer
                self.generation += 1
                if self.generation > 1:
                    self.reconnects += 1
                writer.write(
                    encode_message(Hello(src=self.src, generation=self.generation))
                )
                return writer
            raise ConnectionError(f"peer {self.peer} unreachable at port {self.port}")

    async def _write(self, data: bytes) -> bool:
        """Write and flush; ``False`` when the wire did not take it."""
        try:
            writer = self._writer
            if writer is None or writer.is_closing():
                writer = await self._connect()
            writer.write(data)
            await writer.drain()
        except OSError:
            return False
        return True

    async def _pump(self) -> None:
        while True:
            # Never waits for more: what queued during the last write.
            backlog = await self.queue.take()
            self.taken += len(backlog)
            if not await self._write(encode_backlog(backlog)):
                for item in backlog:
                    if type(item) is list:
                        self._on_drop(item)

    async def _heartbeat(self, interval_s: float) -> None:
        probe = encode_message(Heartbeat(src=self.src))
        while True:
            await asyncio.sleep(interval_s)
            if self._metrics is not None:
                self._metrics.gauge(f"send_queue_depth[->{self.peer}]").set(
                    len(self.queue)
                )
            if self.queue:
                continue  # data is flowing: the link proves itself
            data = probe
            if self._telemetry is not None:
                data += encode_message(self._telemetry())
            started = time.monotonic()
            if not await self._write(data):
                continue
            if self._metrics is not None:
                # Wall-clock flush latency -- telemetry only, never part
                # of a result's bit-identity contract.
                self._metrics.histogram("heartbeat_rtt_ms").observe(
                    (time.monotonic() - started) * 1000.0
                )
            self.heartbeats += 1

    async def close(self) -> None:
        """Stop the tasks, say ``Bye`` and close the connection."""
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        writer = self._writer
        if writer is None:
            return
        with contextlib.suppress(OSError):
            if not writer.is_closing():
                writer.write(encode_message(Bye(src=self.src)))
                await writer.drain()
        writer.close()
        with contextlib.suppress(OSError):
            await writer.wait_closed()


#: How long a closing :class:`FrameServer` waits for its inbound
#: handlers to read their peers' ``Bye`` (wall seconds) before
#: cancelling the ones still open.
HANDLER_EXIT_TIMEOUT_S = 5.0

#: Most bytes one inbound read takes (a full backlog is a quarter of it).
READ_CHUNK_BYTES = 1 << 16


class FrameServer:
    """The inbound side: listening ports and one read loop per connection.

    Each read takes whatever the socket holds.  Every malformed input
    -- oversized, garbage or truncated frame, a ``Hello`` of another
    protocol version, a frame ``on_frame`` refuses with
    :class:`~repro.live.protocol.ProtocolError` -- rejects that
    connection, not the run; the frames ahead of it are served, the
    frames lost with it reconcile as drops.

    Args:
        on_frame: Called with every frame that is not handshake,
            heartbeat or ``Bye``.
        on_hello: Called with every accepted ``Hello``.
    """

    def __init__(
        self,
        on_frame: Callable[[Message], None],
        on_hello: Callable[[Hello], None] | None = None,
    ) -> None:
        #: Connections rejected for a protocol violation.
        self.protocol_errors = 0
        self._on_frame = on_frame
        self._on_hello = on_hello
        self._servers: list[asyncio.Server] = []
        self._handlers: set[asyncio.Task] = set()

    async def listen(self, host: str) -> int:
        """Open one more OS-assigned listening port and return it."""
        server = await asyncio.start_server(self._handle, host, 0)
        self._servers.append(server)
        return server.sockets[0].getsockname()[1]

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._handlers.add(asyncio.current_task())
        assembler = FrameAssembler()
        try:
            while chunk := await reader.read(READ_CHUNK_BYTES):
                for message in assembler.feed(chunk):
                    if isinstance(message, Bye):
                        return
                    if isinstance(message, Hello):
                        check_version(message)
                        if self._on_hello is not None:
                            self._on_hello(message)
                    elif not isinstance(message, Heartbeat):
                        self._on_frame(message)
                if assembler.error is not None:  # after the frames ahead of it
                    raise assembler.error
            if not assembler.at_boundary():
                raise ProtocolError("connection closed mid-frame")
        except ProtocolError:
            self.protocol_errors += 1
        except asyncio.CancelledError:
            pass  # only close() cancels a handler; see there
        finally:
            writer.close()
            with contextlib.suppress(OSError):
                await writer.wait_closed()

    async def close(self) -> None:
        """Stop listening, then let the handlers finish.

        Peers say ``Bye`` as they close; a handler that the loop's
        shutdown cancelled while parked in ``wait_closed`` would be
        reported on stderr as an exception in the streams done-callback,
        so wait for them (bounded), then cancel what is left.
        """
        for server in self._servers:
            server.close()
        if self._handlers:
            _done, pending = await asyncio.wait(
                self._handlers, timeout=HANDLER_EXIT_TIMEOUT_S
            )
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
        for server in self._servers:
            await server.wait_closed()


class WireRuntime:
    """The sans-io nodes of one network behind a due queue, links and a
    frame server.

    The shared data path, one row (see the module docstring) all the
    way: :meth:`dispatch` counts each row a node emitted, judges it at
    its send instant and either queues it locally or on the link
    :attr:`routes` names; the frame server validates and queues every
    inbound ``Forwards`` row; :meth:`deliver` runs when one comes due,
    judges it at its arrival stamp, has the node process it at that
    stamp and dispatches what the node emits, if anything.

    The judgement reads the core's per-link ``loss`` streams and its
    ``down_links``, ``departed`` and ``crashed`` sets as they stand when
    the row is released, as the engine's loop does; a
    run with none of loss, churn and failures skips it whole.

    Args:
        network: The built network whose nodes run here.
        stats: Wire accounting with ``sent`` / ``delivered`` /
            ``dropped`` / ``heartbeats`` / ``reconnects`` fields.
        hosted: Ids of the nodes that take deliveries here (default:
            every repository); a row naming any other is a protocol
            violation.
        src / host / heartbeat_interval_s: Handed to every link.
        time_scale: Simulated seconds per wall second.
        metrics: Optional metrics registry; when given, links export
            their gauges and heartbeats carry a ``Stats`` frame.
    """

    #: Seeded slop (a call, seconds) a driver's clock adds to a local
    #: delivery's arrival stamp, drawn only for rows that enter the network.
    jitter: Callable[[], float] | None = None

    def __init__(
        self,
        network: "LiveNetwork",
        stats,
        *,
        hosted: set[int] | None = None,
        src: int,
        time_scale: float = 1.0,
        host: str = "127.0.0.1",
        heartbeat_interval_s: float = 0.0,
        metrics=None,
    ) -> None:
        self.network = network
        self.stats = stats
        repositories = network.repositories
        if hosted is None:
            hosted = repositories
        #: The nodes that take deliveries here, by id (released with
        #: ``network``: see ``TcpWire.run``).
        self.hosted = {dst: repositories[dst] for dst in hosted}
        self.src = src
        self.host = host
        self.heartbeat_interval_s = heartbeat_interval_s
        self.metrics = metrics
        self.due = DueQueue(time_scale)
        self.server = FrameServer(self._on_frame, self.on_hello)
        self.links: dict[int, Link] = {}
        #: ``dst -> Link`` toward the destination's host; a destination
        #: absent from it lives here.  Each plane's subclass fills it.
        self.routes: dict[int, Link] = {}
        self._due_task: asyncio.Task | None = None
        core = network.reconfig
        # Only the repository plane is judged (ids: nothing cached here
        # may keep a node alive past the run).
        self._repositories = frozenset(network.repositories)
        # The core's per-link loss streams, drawn per row after the
        # link test: a loss run matches the engine's bit for bit.
        self._loss = core.loss
        # The core's sets, mutated in place as it applies the timeline.
        self._down = core.down_links
        self._departed, self._crashed = core.departed, core.crashed
        #: Can a delivery meet a departed or crashed destination?
        self._away = core.churn is not None or core.failures is not None
        #: The engine's ``filtered``: can this run drop at the sender?
        self._judged = self._loss is not None or core.failures is not None
        #: Rows off a link here: landed in a frame, or eaten by the wire.
        self.landed = 0

    # -- what a plane says: ``routes``, and the rest where it matters --

    def control(self, t: float, event) -> bool | None:
        """One control-timeline entry came due (``False`` declines it)."""
        self.network.reconfig.apply(t, event)

    def on_hello(self, hello: Hello) -> None:
        """An inbound connection greeted."""

    def on_control_frame(self, message: Message) -> None:
        """An inbound frame that is not data; refusing it rejects the
        connection."""
        raise ProtocolError(f"unexpected {message.type!r} frame on this link")

    def settled(self) -> None:
        """One message reached its fate (delivered or dropped)."""

    # -- the shared data path --

    def connect(self, peer: int, port: int) -> Link:
        """Start the link toward ``peer``; it connects on first use."""
        link = self.links[peer] = Link(
            self.src, peer, self.host, port,
            self._eaten,
            self.heartbeat_interval_s,
            metrics=self.metrics,
            telemetry=self._telemetry if self.metrics is not None else None,
        )
        return link

    def schedule_replay(
        self, duration: float | None, then: Callable | None = None
    ) -> None:
        """Queue the core's control timeline, the source replay behind
        it and, behind everything queued so far, ``then()`` if given.

        Controls first, so a control event applies ahead of an update
        or a delivery at the same instant -- the engine's tie-break.
        """
        network, push = self.network, self.due.push
        for t, event in network.reconfig.timeline(network.span(duration)):
            push(t, self.control, t, event)
        for t, item_id, value in network.source_schedule(duration):
            push(t, self._source_update, t, item_id, value)
        if then is not None:
            push(self.due.latest(), self._replayed, then)
        self.due.wake()

    def _replayed(self, then: Callable) -> None:
        # A marker, not an event: the engine counts none for it.
        self.due.events_processed -= 1
        then()

    def start(self, epoch: float) -> None:
        """Start releasing the due queue against ``epoch``."""
        self.due.epoch = epoch
        self._due_task = asyncio.create_task(self.due.run(), name="wire-due")

    def pending(self) -> int:
        """Actions and frames queued here, not yet released or written."""
        return len(self.due) + sum(len(link.queue) for link in self.links.values())

    def check(self) -> None:
        """Raise :class:`SimulationError` if a due-queue action raised:
        the queue stopped there and what is left would never run."""
        task = self._due_task
        if task is not None and task.done() and not task.cancelled():
            raise SimulationError("a due-queue action raised") from task.exception()

    def _source_update(self, t: float, item_id: int, value: float) -> None:
        # The source replays its own schedule, so it stamps the update
        # with the scheduled time, not the (sleep-slopped) wall reading.
        self.dispatch(self.network.source_node.on_update(item_id, value, t), t)

    def dispatch(self, rows: list[list], now: float) -> None:
        """Send the rows a node emitted at simulated instant ``now``."""
        self.stats.sent += len(rows)
        judged, jitter, routes = self._judged, self.jitter, self.routes
        down = self._down
        due, deliver = self.due, self.deliver
        heappush, heap, next_seq = heapq.heappush, due._heap, due._seq
        released = due.now
        for row in rows:
            dst = row[0]
            if judged and dst in self._repositories:
                # A down link eats the row before the Bernoulli draw, so
                # a link's loss stream is consumed only for rows that
                # enter it.
                if down and (row[6], dst) in down:
                    self.drop(row, "partition", now)
                    continue
                if self._loss is not None and self._loss.drops(row[6], dst):
                    self.drop(row, "loss", now)
                    continue
            if dst in routes:
                queue = routes[dst].queue
                if queue.put_nowait(row):
                    due.hold(queue)
                continue
            if jitter is not None:
                row[1] += jitter()
            arrival_s = row[1]
            if not arrival_s >= released:
                due.push(arrival_s, deliver, row)  # refuses it: push's error
            heappush(heap, (arrival_s, next_seq(), deliver, (row,)))

    def deliver(self, row: list) -> None:
        # Judged and processed at the logical arrival stamp (see the
        # module docstring), so the availability test, downstream
        # filtering and scoring are free of wall jitter.
        dst, arrival_s, item_id, value, tag, seq, _src = row
        if self._away and (dst in self._departed or dst in self._crashed):
            # Departures ahead of crashes: the engine's precedence.
            reason = "departed" if dst in self._departed else "crash"
            self.drop(row, reason, arrival_s)
            return
        rows = self.hosted[dst].receive(item_id, value, tag, seq, arrival_s)
        if rows:
            self.dispatch(rows, arrival_s)
        self.stats.delivered += 1
        self.settled()

    def drop(self, row: list, reason: str, t: float) -> None:
        """Count one message lost at instant ``t``, engine-comparably."""
        self.stats.dropped += 1
        self.network.counters.record_drop()
        observer = self.network.observer
        if observer is not None:
            dst, _arrival_s, item_id, _value, _tag, seq, src = row
            observer.on_drop(seq - 1, item_id, t, src, dst, reason)
        self.settled()

    def _eaten(self, row: list) -> None:
        # Off its link all the same: a control entry waiting on it may go.
        self.landed += 1
        self.due.wake()
        self.drop(row, "wire", row[1])

    def _on_frame(self, message: Message) -> None:
        if not isinstance(message, Forwards):
            self.on_control_frame(message)
            return
        # The record fixes each field's type; what it cannot state is
        # checked here, per row, so the rows ahead of a bad one queue
        # (and the due loop, woken first, sees them even then).
        due, deliver, hosted = self.due, self.deliver, self.hosted
        due.wake()
        self.landed += len(message.rows)
        heappush, heap, next_seq = heapq.heappush, due._heap, due._seq
        released = due.now
        for row in message.rows:
            if row[0] not in hosted:
                raise ProtocolError(f"node {row[0]} does not live here")
            arrival_s = row[1]
            if not (isfinite(arrival_s) and isfinite(row[3])):
                raise ProtocolError(f"non-finite stamp or value in row {row!r}")
            if not arrival_s >= released:
                due.push(arrival_s, deliver, row)  # refuses it: push's error
            heappush(heap, (arrival_s, next_seq(), deliver, (row,)))

    def _telemetry(self) -> Stats:
        stats = self.stats
        return Stats(
            src=self.src, sent=stats.sent, delivered=stats.delivered,
            dropped=stats.dropped, pending=self.pending(),
        )

    async def close(self) -> None:
        """Stop pacing, close every link (``Bye``) and the server, and
        fold the links' probe and reconnect counts into the stats."""
        if self._due_task is not None:
            self._due_task.cancel()
            await asyncio.gather(self._due_task, return_exceptions=True)
        await asyncio.gather(*(link.close() for link in self.links.values()))
        await self.server.close()
        self.stats.heartbeats += sum(link.heartbeats for link in self.links.values())
        self.stats.reconnects += sum(link.reconnects for link in self.links.values())
