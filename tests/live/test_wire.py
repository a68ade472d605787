"""The shared socket runtime's pieces, driven directly over localhost."""

import asyncio
import math
import multiprocessing
import socket
import struct
import time

import pytest

from repro.core.metrics import CostCounters
from repro.engine.builder import build_setup
from repro.engine.config import SimulationConfig
from repro.errors import SimulationError
from repro.fleet.sharding import plan_shards
from repro.fleet.worker import FleetSpec, _Shard
from repro.live import wire
from repro.live.harness import build_live_network
from repro.live.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    Bye,
    Forwards,
    Hello,
    ResyncRequest,
    encode_message,
)
from repro.live.transport import TcpWire, TransportStats, VirtualWire

pytestmark = pytest.mark.live

HOST = "127.0.0.1"
CONFIG = SimulationConfig(n_repositories=5, n_routers=15, n_items=2, trace_samples=80)


@pytest.fixture(scope="module", autouse=True)
def _require_localhost_sockets():
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            probe.bind((HOST, 0))
        finally:
            probe.close()
    except OSError as exc:  # pragma: no cover - sandboxed environments
        pytest.skip(f"cannot bind localhost sockets here: {exc}")


def run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=20.0))


def frame(seq: int) -> list:
    """One message as the runtime queues it on a link: a row."""
    return [1, 0.0, 0, float(seq), None, seq, 0]


def batch(*seqs: int) -> bytes:
    """The bytes a link writes for a backlog of those messages."""
    return wire.encode_backlog([frame(seq) for seq in seqs])


def seqs(frames) -> list:
    """What a server passed on, one entry per frame: the seqs of a data
    frame's rows, a control frame as itself."""
    return [
        [row[5] for row in f.rows] if isinstance(f, Forwards) else f for f in frames
    ]


async def until(condition, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.005)


# ---- DueQueue ----


def test_due_queue_releases_by_due_time_then_push_order():
    async def scenario():
        due = wire.DueQueue(time_scale=1000.0)
        released = []

        def note(tag):
            released.append(tag)

        for tag, at in (("c", 30.0), ("a1", 10.0), ("b", 20.0), ("a2", 10.0)):
            due.push(at, note, tag)
        assert len(due) == 4 and due.latest() == 30.0
        due.epoch = time.monotonic()
        task = asyncio.create_task(due.run())
        await until(lambda: len(released) == 4)
        task.cancel()
        await asyncio.gather(task, return_exceptions=True)
        return released

    assert run(scenario()) == ["a1", "a2", "b", "c"]


def test_due_queue_wakes_early_for_an_earlier_action():
    async def scenario():
        due = wire.DueQueue(time_scale=1.0)
        released = []

        def note(tag):
            released.append((tag, due.wall_now()))

        due.epoch = time.monotonic()
        due.push(30.0, note, "far")  # half a minute out: the loop sleeps on it
        task = asyncio.create_task(due.run())
        await asyncio.sleep(0.02)
        due.push(0.05, note, "near")
        due.wake()  # pushed from outside the loop's own actions
        await until(lambda: released)
        task.cancel()
        await asyncio.gather(task, return_exceptions=True)
        return released, len(due)

    released, left = run(scenario())
    assert [tag for tag, _at in released] == ["near"]
    assert 0.05 <= released[0][1] < 5.0
    assert left == 1


def test_a_declined_action_keeps_its_key_and_holds_back_what_is_behind_it():
    async def scenario():
        due = wire.DueQueue(time_scale=1000.0)
        released, ready = [], []

        def control(tag):
            released.append(tag)
            return False if not ready else None

        def note(tag):
            released.append(tag)

        due.push(10.0, control, "control")
        due.push(20.0, note, "behind")
        due.epoch = time.monotonic()
        task = asyncio.create_task(due.run())
        await until(lambda: released)
        await asyncio.sleep(0.05)  # both due; only the decline ran
        held = list(released)
        due.push(5.0, note, "earlier")  # lands, and wakes the loop
        ready.append(True)
        due.wake()
        await until(lambda: len(released) == 4)
        task.cancel()
        await asyncio.gather(task, return_exceptions=True)
        return held, released, due.events_processed

    held, released, events = run(scenario())
    assert held == ["control"]
    assert released == ["control", "earlier", "control", "behind"]
    assert events == 3  # the decline is not an event


# ---- Link + FrameServer ----


def test_due_queue_wall_run_never_moves_the_virtual_clock():
    async def scenario():
        due = wire.DueQueue(time_scale=1000.0)
        assert due.now == -math.inf and due.latest() == 0.0
        released = []
        due.push(5.0, released.append, "on the wall clock")
        due.epoch = time.monotonic()
        task = asyncio.create_task(due.run())
        await until(lambda: released)
        task.cancel()
        await asyncio.gather(task, return_exceptions=True)
        return due

    due = run(scenario())
    # Both count what they release.
    assert due.now == -math.inf and due.events_processed == 1
    due.push(-1.0, print)  # so a frame due before 5.0 is still accepted
    due.drain()  # only the virtual drain moves the clock
    assert due.now == -1.0 and due.events_processed == 2


def test_due_queue_wall_now_reads_simulated_seconds_since_the_epoch():
    due = wire.DueQueue(time_scale=10.0)
    due.epoch = time.monotonic() - 2.0
    assert 20.0 <= due.wall_now() < 30.0


def test_an_inbound_frame_wakes_the_due_loop():
    async def scenario():
        runtime = one_link_runtime()
        delivered = []
        runtime.deliver = delivered.append
        runtime.start(time.monotonic())
        await asyncio.sleep(0.02)  # the loop now sleeps until a wake
        row = (min(runtime.hosted), 0.0, 0, 1.0, None, 1, 0)
        runtime._on_frame(Forwards([row]))
        await until(lambda: delivered, timeout=2.0)
        await runtime.close()
        return delivered, row

    delivered, row = run(scenario())
    assert delivered == [row]


def test_schedule_replay_wakes_the_due_loop():
    async def scenario():
        runtime = one_link_runtime()
        runtime.control = runtime._source_update = lambda *args: None
        done = []
        runtime.start(time.monotonic())
        await asyncio.sleep(0.02)  # the loop now sleeps until a wake
        runtime.schedule_replay(None, then=lambda: done.append(runtime.due.wall_now()))
        await until(lambda: done, timeout=2.0)
        await runtime.close()
        return done

    assert len(run(scenario())) == 1


def test_link_reconnects_with_a_bumped_generation_after_sever():
    async def scenario():
        hellos, frames, dropped = [], [], []
        server = wire.FrameServer(frames.append, hellos.append)
        link = wire.Link(7, 1, HOST, await server.listen(HOST), dropped.append)
        await link.queue.put(frame(1))
        await until(lambda: len(frames) == 1)
        link.sever()
        for seq in (2, 3, 4):  # a backlog behind the severed connection
            await link.queue.put(frame(seq))
        await until(lambda: len(frames) == 2)
        await link.close()
        await server.close()
        return hellos, frames, dropped, link

    hellos, frames, dropped, link = run(scenario())
    assert [(h.src, h.generation) for h in hellos] == [(7, 1), (7, 2)]
    # Conserved across the reconnect: everything queued landed, once.
    assert seqs(frames) == [[1], [2, 3, 4]]
    assert dropped == []
    assert link.generation == 2 and link.reconnects == 1


def test_link_reports_a_wire_drop_when_attempts_run_out(monkeypatch):
    monkeypatch.setattr(wire, "RECONNECT_BACKOFF_S", 0.001)

    async def scenario():
        dropped = []
        server = wire.FrameServer(lambda message: None)
        port = await server.listen(HOST)
        await server.close()  # nobody listens there any more
        link = wire.Link(7, 1, HOST, port, dropped.append)
        await link.queue.put(frame(1))
        link.queue.put_nowait(ResyncRequest(child=1, parent=0, round_no=0))
        await link.queue.put(frame(2))
        await link.queue.put(frame(3))
        await until(lambda: len(dropped) == 3)
        await link.close()
        return dropped, link

    dropped, link = run(scenario())
    # One eaten write: every message in it is reported, in order; the
    # control frame between them is not.
    assert dropped == [frame(1), frame(2), frame(3)]
    assert link.generation == 0 and link.reconnects == 0


def test_link_writes_its_backlog_as_runs_of_data_around_control_frames():
    control = ResyncRequest(child=1, parent=0, round_no=0)

    async def scenario():
        frames = []
        server = wire.FrameServer(frames.append)
        link = wire.Link(7, 1, HOST, await server.listen(HOST), lambda out: None)
        # Queued without a yield, so one pump wakeup finds all four.
        for item in (frame(1), control, frame(2), frame(3)):
            link.queue.put_nowait(item)
        await until(lambda: len(frames) == 3)
        await link.queue.put(frame(4))  # paced: a backlog of one
        await until(lambda: len(frames) == 4)
        await link.close()
        await server.close()
        return frames

    assert seqs(run(scenario())) == [[1], control, [2, 3], [4]]


def test_link_heartbeats_only_while_idle():
    async def scenario():
        frames = []
        server = wire.FrameServer(frames.append)
        link = wire.Link(
            7, 1, HOST, await server.listen(HOST), lambda f: None,
            heartbeat_interval_s=0.01,
        )
        await until(lambda: link.heartbeats >= 2)
        await link.close()
        await server.close()
        return frames, server

    frames, server = run(scenario())
    assert frames == []  # probes never reach on_frame
    assert server.protocol_errors == 0


@pytest.mark.parametrize(
    "poison, served",
    [
        (struct.pack(">I", MAX_FRAME_BYTES + 1), []),
        (struct.pack(">I", 9) + b"\xff not json", []),
        (encode_message(Hello(src=9, version=PROTOCOL_VERSION + 1)), []),
        (struct.pack(">I", 40) + b"{}", []),  # truncated: EOF mid-frame
        # Good frames that share a read with a bad one are still served.
        (batch(8, 9) + struct.pack(">I", 9) + b"\xff not json" + batch(10), [[8, 9]]),
    ],
    ids=["oversized", "garbage", "version-mismatch", "truncated", "good-then-garbage"],
)
def test_server_rejects_the_connection_not_the_run(poison, served):
    async def scenario():
        frames = []
        server = wire.FrameServer(frames.append)
        port = await server.listen(HOST)

        reader, writer = await asyncio.open_connection(HOST, port)
        writer.write(poison)
        writer.write_eof()
        assert await reader.read() == b""  # the server hung up on us
        writer.close()
        await writer.wait_closed()

        # The same port still serves a well-behaved peer.
        link = wire.Link(7, 1, HOST, port, lambda f: None)
        await link.queue.put(frame(1))
        await until(lambda: len(frames) == len(served) + 1)
        await link.close()
        await server.close()
        return server.protocol_errors, frames

    errors, frames = run(scenario())
    assert errors == 1
    assert seqs(frames) == [*served, [1]]


def test_server_rejects_a_frame_the_driver_refuses():
    async def scenario():
        def refuse(message):
            raise wire.ProtocolError("not on this link")

        server = wire.FrameServer(refuse)
        reader, writer = await asyncio.open_connection(HOST, await server.listen(HOST))
        writer.write(encode_message(Hello(src=9)) + batch(1))
        assert await reader.read() == b""
        writer.close()
        await writer.wait_closed()
        await server.close()
        return server.protocol_errors

    assert run(scenario()) == 1


def test_server_close_waits_for_handlers_then_cancels(monkeypatch):
    monkeypatch.setattr(wire, "HANDLER_EXIT_TIMEOUT_S", 0.2)

    async def scenario():
        frames = []
        server = wire.FrameServer(frames.append)
        port = await server.listen(HOST)

        # A polite peer: its Bye lands while close() is already waiting.
        _r1, polite = await asyncio.open_connection(HOST, port)
        polite.write(encode_message(Hello(src=1)) + batch(1))
        # A silent peer: never says Bye, never hangs up.
        _r2, silent = await asyncio.open_connection(HOST, port)
        silent.write(encode_message(Hello(src=2)))
        await until(lambda: len(frames) == 1 and len(server._handlers) == 2)

        async def say_bye():
            await asyncio.sleep(0.05)
            polite.write(encode_message(Bye(src=1)))

        bye = asyncio.create_task(say_bye())
        started = time.monotonic()
        await server.close()
        waited = time.monotonic() - started
        await bye
        for writer in (polite, silent):
            writer.close()
            await writer.wait_closed()
        others = asyncio.all_tasks() - {asyncio.current_task()}
        return waited, [task.done() for task in server._handlers], others

    waited, done, others = asyncio.run(scenario())  # bare: run() adds a task
    assert 0.2 <= waited < 2.0  # the silent handler used the whole budget
    assert done == [True, True]
    assert others == set()


# ---- backpressure: dispatch never waits, the due queue does ----


def one_link_runtime() -> wire.WireRuntime:
    """A runtime with every node hosted; :func:`route_all` puts them all
    behind one link."""
    network = build_live_network(CONFIG)
    return wire.WireRuntime(
        network, TransportStats(), hosted=set(network.repositories), src=0,
        time_scale=1000.0, host=HOST, heartbeat_interval_s=0.0,
    )


def route_all(runtime: wire.WireRuntime, link: wire.Link) -> wire.Link:
    runtime.routes = dict.fromkeys(runtime.hosted, link)
    return link


def test_an_action_that_fills_a_send_queue_holds_the_next_one_until_it_is_taken():
    fan_out = 3
    total = wire.QUEUE_HIGH + fan_out - 1

    async def scenario():
        frames, depths = [], []
        server = wire.FrameServer(frames.append)
        runtime = one_link_runtime()
        queue = route_all(runtime, runtime.connect(0, await server.listen(HOST))).queue

        def depth():
            depths.append((len(queue), queue.stalls))

        # All due at once: the loop releases them back to back and only
        # yields to the pump where backpressure makes it.
        below = [frame(seq) for seq in range(wire.QUEUE_HIGH - 1)]
        over = [frame(seq) for seq in range(len(below), len(below) + fan_out)]
        for action, args in (
            (runtime.dispatch, (below, 0.0)), (depth, ()),  # free-running below high
            (runtime.dispatch, (over, 0.0)), (depth, ()),  # reached high: held
        ):
            runtime.due.push(0.0, action, *args)
        runtime.start(time.monotonic())
        await until(lambda: len(depths) == 2 and sum(map(len, seqs(frames))) == total)
        await runtime.close()
        await server.close()
        return depths, frames, runtime.stats

    depths, frames, stats = run(scenario())
    # The first probe ran with the backlog still queued, the second only
    # once the pump had taken all of it -- one stall, counted.
    assert depths == [(wire.QUEUE_HIGH - 1, 0), (0, 1)]
    # One write: the queue peaked at high + fan_out - 1 and went out whole.
    assert seqs(frames) == [list(range(total))]
    assert stats.sent == total and stats.dropped == 0


def test_a_dead_link_under_a_stall_reports_the_eaten_write_in_order(monkeypatch):
    monkeypatch.setattr(wire, "RECONNECT_BACKOFF_S", 0.001)

    async def scenario():
        frames, dropped, released = [], [], []
        server = wire.FrameServer(frames.append)
        runtime = one_link_runtime()
        link = runtime.links[0] = route_all(
            runtime, wire.Link(0, 0, HOST, await server.listen(HOST), dropped.append)
        )
        runtime.start(time.monotonic())
        runtime.due.push(0.0, runtime.dispatch, [frame(0)], 0.0)
        runtime.due.wake()
        await until(lambda: len(frames) == 1)
        await server.close()  # nobody listens there any more ...
        link.sever()  # ... and the connection under the link is gone
        eaten = [frame(seq) for seq in range(1, wire.QUEUE_HIGH + 1)]
        runtime.due.push(0.0, runtime.dispatch, eaten, 0.0)
        runtime.due.push(0.0, released.append, "next")
        runtime.due.wake()
        await until(lambda: released and len(dropped) >= len(eaten))
        await runtime.close()
        return dropped, eaten, link, runtime.stats

    dropped, eaten, link, stats = run(scenario())
    # The pump taking the backlog released the held action, and the
    # write the wire then ate is reported whole, oldest row first.
    assert dropped == eaten
    assert link.queue.stalls == 1 and len(link.queue) == 0
    assert stats.sent == 1 + len(eaten)


# ---- the route table: where a destination lives ----


def test_the_virtual_wire_routes_nothing_anywhere():
    runtime = VirtualWire(build_live_network(CONFIG))
    assert runtime.routes == {}
    stats = runtime.run()
    assert runtime.routes == {} and runtime.links == {}
    assert stats.delivered > 0 and stats.conserved


def test_the_tcp_wire_routes_every_hosted_destination_to_its_own_link():
    network = build_live_network(CONFIG)
    runtime = TcpWire(network, time_scale=800.0)
    stats = asyncio.run(asyncio.wait_for(runtime.run(40.0), timeout=20.0))
    assert stats.delivered > 0 and stats.conserved
    assert set(runtime.routes) == set(network.repositories)
    for dst, link in runtime.routes.items():
        assert link is runtime.links[dst] and link.peer == dst


def test_a_fleet_shard_routes_the_peers_nodes_to_the_peers_link():
    """At ``start``, from the shard plan: every node the peer owns maps
    to the one link toward it, and no local node is in the table -- a
    row toward one lands on the due heap."""
    plan = plan_shards(build_setup(CONFIG), 2)
    worker = 1 - plan.owner[plan.source]  # no replay starts on this one
    peer = 1 - worker
    supervisor, worker_end = multiprocessing.Pipe()

    async def scenario():
        shard = _Shard(worker, FleetSpec(config=CONFIG, n_workers=2), worker_end)
        # Nothing is sent before ``finish``, so the peer's port is never dialled.
        supervisor.send(("start", {worker: 0, peer: 0}, time.monotonic()))
        supervisor.send(("finish",))
        await shard.obey()
        await shard.close()
        return shard

    shard = run(scenario())
    link = shard.links[peer]
    assert shard.routes == {
        node: link for node, owner in plan.owner.items() if owner == peer
    }
    assert shard.local_repos and not shard.local_repos & set(shard.routes)
    peers_repos = {r for r in shard.network.repositories if plan.owner[r] == peer}
    assert peers_repos and peers_repos <= set(shard.routes)

    local, remote = min(shard.local_repos), min(peers_repos)
    toward_local = [local, 2.5, 0, 1.0, None, 1, 0]
    toward_peer = [remote, 2.5, 0, 1.0, None, 2, 0]
    shard.dispatch([toward_local, toward_peer], 1.0)
    assert [entry[3] for entry in shard.due._heap] == [(toward_local,)]
    assert shard.due._heap[0][2] == shard.deliver
    assert link.queue._items == [toward_peer]


@pytest.mark.parametrize("arrival_s", [4.0, math.nan], ids=["past", "nan"])
def test_a_local_row_due_before_the_clock_gets_the_due_queues_refusal(arrival_s):
    """``dispatch`` pushes local rows itself, under ``push``'s guard."""
    runtime = VirtualWire(build_live_network(CONFIG))
    row = [min(runtime.hosted), arrival_s, 0, 1.0, None, 1, 0]
    runtime.due.push(5.0, runtime.dispatch, [row], 5.0)
    with pytest.raises(SimulationError, match="clock is already at 5.0"):
        runtime.due.drain()


def test_an_inbound_row_due_before_the_clock_gets_the_due_queues_refusal():
    """So does the frame server, after the checks of its own."""
    runtime = VirtualWire(build_live_network(CONFIG))
    early = (min(runtime.hosted), 4.0, 0, 1.0, None, 1, 0)
    runtime.due.push(5.0, runtime._on_frame, Forwards([early]))
    with pytest.raises(SimulationError, match="cannot schedule at 4.0"):
        runtime.due.drain()


# ---- end-of-run reconciliation ----


def test_reconcile_charges_in_flight_frames_to_drops_on_both_planes():
    counters = CostCounters()
    counters.messages, counters.deliveries, counters.drops = 10, 7, 1
    assert wire.reconcile(12, 9, 1, counters) == 3
    assert counters.messages == counters.deliveries + counters.drops

    with pytest.raises(SimulationError):
        wire.reconcile(3, 4, 0, CostCounters())
    over = CostCounters()
    over.messages, over.deliveries = 2, 5
    with pytest.raises(SimulationError):
        wire.reconcile(5, 5, 0, over)
