"""Localhost TCP smoke: real sockets, real frames, conserved messages."""

import asyncio
import collections
import gc
import inspect
import math
import socket
import struct
import weakref

import pytest

from repro.engine import SCALE_PRESETS
from repro.engine.adaptive import AdaptivePolicy
from repro.engine.churn import ChurnEvent, ChurnSchedule, schedule_for_config
from repro.engine.config import SimulationConfig
from repro.engine.failures import FailureEvent, FailureSchedule, failures_for_config
from repro.engine.reconfig import ReconfigurationCore
from repro.engine.simulation import run_simulation
from repro.fleet import run_fleet
from repro.fleet.worker import FleetSpec
from repro.live import wire
from repro.live.harness import build_live_network, run_live
from repro.live.nodes import RepositoryNode
from repro.live.protocol import (
    Forward,
    Forwards,
    Hello,
    ProtocolError,
    decode_payload,
    encode_message,
    encode_rows,
)
from repro.live.transport import TcpWire
from repro.obs.trace import TraceRecorder
from repro.errors import ConfigurationError, SimulationError

pytestmark = pytest.mark.live

#: Deliberately small: the TCP smoke checks plumbing, not statistics.
CONFIG = SimulationConfig(
    n_repositories=5, n_routers=15, n_items=2, trace_samples=80
)


@pytest.fixture(scope="module", autouse=True)
def _require_localhost_sockets():
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            probe.bind(("127.0.0.1", 0))
        finally:
            probe.close()
    except OSError as exc:  # pragma: no cover - sandboxed environments
        pytest.skip(f"cannot bind localhost sockets here: {exc}")


def test_tcp_smoke_runs_and_conserves():
    result = run_live(CONFIG, "tcp", duration=40.0, time_scale=800.0)
    assert result.transport == "tcp"
    assert result.sent > 0
    assert result.conserved
    # A healthy smoke delivers everything inside the quiescence window.
    assert result.dropped == 0
    assert result.delivered == result.sent


def test_tcp_observes_fidelity_from_real_deliveries():
    result = run_live(CONFIG, "tcp", duration=40.0, time_scale=800.0)
    # Every repository scored; observed loss is a valid percentage.
    assert len(result.per_repository_loss) == CONFIG.n_repositories
    assert 0.0 <= result.loss_of_fidelity <= 100.0


@pytest.fixture
def impatient_quiescence(monkeypatch):
    """The quiescence wait times out at once, with the 3.10-flavoured
    ``asyncio.TimeoutError``; every shorter wait runs as it would."""
    real_wait_for = asyncio.wait_for

    async def impatient_wait_for(awaitable, timeout=None):
        # Only the quiescence wait is this long; due-queue sleeps at
        # time_scale=800 are milliseconds.
        if timeout is not None and timeout >= wire.QUIESCE_TIMEOUT_S:
            if asyncio.iscoroutine(awaitable):
                awaitable.close()
            raise asyncio.TimeoutError()
        return await real_wait_for(awaitable, timeout=timeout)

    monkeypatch.setattr(asyncio, "wait_for", impatient_wait_for)


def test_tcp_quiescence_survives_timeout(impatient_quiescence):
    """A timed-out quiescence wait must end the run, not crash it.

    ``asyncio.wait_for`` raises ``asyncio.TimeoutError`` on 3.10 and the
    builtin ``TimeoutError`` on 3.11+; the transport catches both, and
    the run still ends conserved.
    """
    result = run_live(CONFIG, "tcp", duration=40.0, time_scale=800.0)
    assert result.transport == "tcp"
    assert result.conserved
    assert result.dropped > 0  # the last updates' frames were still out
    assert 0.0 <= result.loss_of_fidelity <= 100.0


def test_an_expired_quiescence_budget_charges_what_is_out_to_the_drops(
    impatient_quiescence,
):
    """The rows still out when the wait expires are charged to
    ``counters.drops`` as the run ends, and ``result.dropped`` reads
    that count.  This run judges no loss and no failure, so no drop
    span is recorded: every drop is that residual."""
    network = build_live_network(CONFIG)
    recorder = TraceRecorder(policy=CONFIG.policy)
    network.attach_observer(recorder)
    result = run_live(
        CONFIG, "tcp", duration=40.0, time_scale=800.0, network=network
    )
    assert [ev for ev in recorder.events if ev.kind == "drop"] == []
    assert result.dropped == result.counters.drops > 0
    assert result.counters.messages == result.counters.deliveries + result.dropped


def test_tcp_slow_time_scale_stretches_budgets_and_conserves():
    """Satellite pin: wall budgets scale by ``1/time_scale`` (capped).

    At a slow pace, in-flight wall times stretch; the fixed 30 s
    quiescence budget of the 60x default would truncate a healthy run
    into phantom drops.  The scaled budget keeps a slow run loss-free
    and conserved.
    """
    assert wire.wall_factor(60.0) == 1.0
    assert wire.wall_factor(20.0) == pytest.approx(3.0)
    assert wire.wall_factor(1.0) == wire.WALL_STRETCH_CAP == 20.0  # capped
    assert wire.wall_factor(800.0) == 1.0

    result = run_live(CONFIG, "tcp", duration=20.0, time_scale=20.0)
    assert result.conserved
    assert result.dropped == 0
    assert result.delivered == result.sent


def test_tcp_fidelity_tracks_inprocess_at_an_aggressive_pace():
    """Nodes process at the logical arrival stamp, so the wall clock's
    per-hop latency no longer reads as fidelity loss (it was +3.9 pp at
    time_scale=200 and +54 pp at 2000 on this config)."""
    config = SCALE_PRESETS["tiny"].with_(
        n_items=12, comp_delay_ms=25.0, trace_samples=200
    )
    virtual = run_live(config, "inprocess")
    result = run_live(config, "tcp", time_scale=800.0)
    assert result.sent == virtual.sent
    assert result.dropped == 0
    assert abs(result.loss_of_fidelity - virtual.loss_of_fidelity) <= 0.5


def test_tcp_failure_smoke_conserves_under_crashes_and_loss():
    """Crashes, a partition and seeded loss over real sockets.

    Conservation stays *exact* (the drop economy is judged at logical
    arrival times) while the message volume only tracks the simulator
    within a tolerance: over TCP the seeded loss stream is drawn in
    dispatch order, which the wall clock decides.  The ``live_crosscheck``
    table holds TCP to the simulator exactly without loss, and to both
    conservation laws with it.
    """
    base = CONFIG.with_(message_loss_probability=0.01)
    config = base.with_(
        failures=failures_for_config(base, crashes=1, partitions=1)
    )
    sim = run_simulation(config)
    result = run_live(
        config, "tcp", time_scale=800.0, heartbeat_interval_s=0.01
    )
    assert result.conserved
    assert result.sent == result.delivered + result.dropped
    assert result.dropped > 0
    assert abs(result.sent - sim.counters.messages) <= max(
        4, sim.counters.messages // 10
    )
    assert result.extras["crashes"] == 1
    assert result.extras["partitions"] == 1
    assert result.extras["heartbeats"] > 0
    assert result.extras["reconnects"] >= 0


def test_tcp_churn_smoke_conserves_and_reconfigures():
    """Joins, departures and a requirement change over real sockets: a
    delivery to a departed repository drops at its arrival stamp, so the
    drop economy stays exact."""
    config = CONFIG.with_(
        churn=schedule_for_config(CONFIG, joins=1, departs=1, updates=1)
    )
    result = run_live(config, "tcp", time_scale=800.0)
    assert result.conserved
    assert result.sent == result.delivered + result.dropped
    assert result.counters.reconfigurations > 0
    assert result.extras["churn_events"] == len(config.churn)


def test_tcp_transport_validates_parameters():
    with pytest.raises(ConfigurationError, match="time_scale must be positive"):
        run_live(CONFIG, "tcp", time_scale=0.0)
    with pytest.raises(ConfigurationError, match="unknown live transport"):
        run_live(CONFIG, "udp")


def test_wall_budgets_are_not_options():
    """The wall budgets are constants of ``repro.live.wire``; pin the
    exact keyword sets so one cannot creep back in as a knob."""

    def keywords(function) -> set[str]:
        return set(inspect.signature(function).parameters)

    assert keywords(run_live) == {
        "config", "transport", "duration", "time_scale",
        "heartbeat_interval_s", "network",
    }
    assert keywords(TcpWire) == {
        "network", "time_scale", "heartbeat_interval_s",
    }
    assert keywords(run_fleet) == {
        "config", "workers", "duration", "time_scale", "heartbeat_interval_s",
        "sever_at_s", "trace_recorder",
    }
    assert keywords(FleetSpec) == {
        "config", "n_workers", "duration", "time_scale",
        "heartbeat_interval_s", "host", "trace",
    }


# Kept below the failure smoke on purpose: it expects the victim's link
# to have connected before the crash severs it (~46 ms into the run), a
# race a stalled loop loses (same at the parent with a 60 ms stall).
# With these tests ahead of it that happened in ~1 of 8 runs under
# ``python -X dev``; behind it, in none of 20.


def test_tcp_paced_run_scores_exactly_the_inprocess_loss():
    """The ledger's ``tcp_excess_loss_pp`` probe, pinned: at a pace the
    wire keeps up with, every batch is one row written the moment it is
    queued, and processing at the logical stamp makes the socket plane's
    loss the in-process plane's, to the bit."""
    config = SCALE_PRESETS["tiny"].with_(
        n_items=12, comp_delay_ms=25.0, trace_samples=500
    )
    virtual = run_live(config, "inprocess")
    result = run_live(config, "tcp", time_scale=200.0)
    assert result.sent == virtual.sent
    assert result.dropped == 0
    assert result.loss_of_fidelity == virtual.loss_of_fidelity


def _frame(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


#: Frames no peer of this network would send: a row for a node nobody
#: hosts (this once hung the run), alone and in a batch, a body that is
#: not whole rows, the version-4 JSON data frame, and rows whose stamp
#: or value no clock or trace could produce.
ROGUE_FRAMES = {
    "single-forward": encode_message(Forward(
        dst=10**6, arrival_s=1.0, item_id=0, value=1.0, tag=None, seq=1, src=0
    )),
    "unknown-node": encode_message(Forwards([[10**6, 1.0, 0, 1.0, None, 1, 0]])),
    "source-node": encode_message(Forwards([[0, 1.0, 0, 1.0, None, 1, 0]])),
    "short-row": _frame(encode_rows([[1, 1.0, 0, 1.0, None, 1, 0]])[4:-1]),
    "json-forwards": _frame(
        b'{"rows":[[1,1.0,0,1.0,null,1,0]],"type":"forwards"}'
    ),
    "nan-arrival": encode_message(Forwards([[1, math.nan, 0, 1.0, None, 1, 0]])),
    "inf-arrival": encode_message(Forwards([[1, math.inf, 0, 1.0, None, 1, 0]])),
    "nan-value": encode_message(Forwards([[1, 1.0, 0, math.nan, None, 1, 0]])),
}


@pytest.mark.parametrize("rogue", ROGUE_FRAMES.values(), ids=ROGUE_FRAMES)
def test_tcp_rogue_frame_rejects_its_connection_not_the_run(rogue):
    """It used to raise ``KeyError`` inside the due task, which nobody
    watched: the run waited on its replay forever."""

    async def scenario():
        runtime = TcpWire(build_live_network(CONFIG), time_scale=200.0)
        hosted = len(runtime.hosted)
        running = asyncio.create_task(runtime.run(None))
        while len(runtime.links) < hosted:
            await asyncio.sleep(0.001)
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", runtime.links[1].port
        )
        writer.write(encode_message(Hello(src=99)) + rogue)
        assert await reader.read() == b""  # the server hung up on us
        writer.close()
        await writer.wait_closed()
        await running
        return runtime.counters, runtime.server.protocol_errors

    counters, protocol_errors = asyncio.run(asyncio.wait_for(scenario(), timeout=20.0))
    assert protocol_errors == 1
    assert counters.drops == 0 and counters.deliveries == counters.messages > 0


@pytest.mark.parametrize(
    "rogue",
    [[10**6, 2.5, 0, 1.0, None, 1, 0], [1, math.nan, 0, 1.0, None, 1, 0]],
    ids=["unknown-node", "nan-arrival"],
)
def test_rows_ahead_of_a_rogue_one_are_still_queued(rogue):
    async def scenario():
        runtime = TcpWire(build_live_network(CONFIG))
        good = [1, 2.5, 0, 1.0, None, 1, 0]
        frame = decode_payload(encode_rows([good, rogue, good])[4:])
        with pytest.raises(ProtocolError):
            runtime._on_frame(frame)
        return len(runtime.due), runtime.due.latest()

    assert asyncio.run(scenario()) == (1, 2.5)


def test_tcp_run_ends_loudly_when_a_node_raises(monkeypatch):
    """A due-queue action that raises stops the schedule; the run must
    say so instead of waiting for a replay that cannot finish."""

    def broken(self, item_id, value, tag, seq, now):
        raise RuntimeError("node bug")

    monkeypatch.setattr(RepositoryNode, "receive", broken)
    runtime = TcpWire(build_live_network(CONFIG), time_scale=800.0)
    with pytest.raises(SimulationError, match="due-queue action raised") as caught:
        asyncio.run(asyncio.wait_for(runtime.run(40.0), timeout=20.0))
    assert isinstance(caught.value.__cause__, RuntimeError)


def test_a_finished_tcp_runtime_no_longer_reaches_the_networks_nodes():
    """The runtime sits in a reference cycle with its closed links and
    server; what it cached for the hot path must go where ``network``
    goes, or one run's delivery logs outlive the run with it."""
    network = build_live_network(CONFIG)
    node = weakref.ref(next(iter(network.repositories.values())))
    runtime = TcpWire(network, time_scale=800.0)
    asyncio.run(asyncio.wait_for(runtime.run(40.0), timeout=20.0))
    assert runtime.counters.deliveries > 0
    del network
    gc.collect()  # the network is a cycle of its own (its core points back)
    assert node() is None  # while ``runtime`` is still alive right here


# ---- the control timeline in stamp order with the rows ----


@pytest.mark.parametrize(
    "key, schedule",
    [
        ("failures", FailureSchedule(
            (FailureEvent.crash(20.0, 2), FailureEvent.recover(40.0, 2))
        )),
        ("churn", ChurnSchedule((ChurnEvent.join(20.0, 2),))),
    ],
    ids=["crash", "join"],
)
def test_a_row_stamped_before_a_control_entry_is_released_ahead_of_it(
    key, schedule, monkeypatch
):
    """Every link's writes wait until the first control entry has come
    due, so every row stamped before its instant lands after it.  The
    entry must still apply after all of them: applied first, a late row
    was judged and forwarded by a core that had moved on -- a joiner's
    log then read a delivery stamped before its join's sync entry."""
    instant = schedule.events[0].time
    came_due = asyncio.Event()
    released = []
    control, apply = TcpWire.control, ReconfigurationCore.apply
    receive, write = RepositoryNode.receive, wire.Link._write

    def noting_control(self, t, event):
        came_due.set()
        return control(self, t, event)

    def noting_apply(self, now, event):
        released.append(("control", now))
        return apply(self, now, event)

    def noting_receive(self, item_id, value, tag, seq, now):
        released.append(("row", now))
        return receive(self, item_id, value, tag, seq, now)

    async def held_write(self, data):
        await came_due.wait()
        return await write(self, data)

    monkeypatch.setattr(TcpWire, "control", noting_control)
    monkeypatch.setattr(ReconfigurationCore, "apply", noting_apply)
    monkeypatch.setattr(RepositoryNode, "receive", noting_receive)
    monkeypatch.setattr(wire.Link, "_write", held_write)
    result = run_live(CONFIG.with_(**{key: schedule}), "tcp", time_scale=200.0)
    assert result.conserved
    first = released.index(("control", instant))
    # Every write waited for the entry to come due: whatever was
    # released ahead of it landed after that.
    assert any(kind == "row" for kind, _stamp in released[:first])
    assert [
        stamp for kind, stamp in released[first:] if kind == "row" and stamp < instant
    ] == []


def _repro(case: str) -> SimulationConfig:
    """Churn, and failures at seed 7 under two policies, at ``tiny``:
    at a fast pace, rows are out on a link at every control instant."""
    tiny = SCALE_PRESETS["tiny"]
    if case == "churn":
        return tiny.with_(churn=schedule_for_config(tiny, joins=1, departs=1, updates=1))
    base = tiny.with_(seed=7, policy=case.removeprefix("failures-"))
    return base.with_(failures=failures_for_config(base, crashes=1, partitions=1))


def _outcome(config, transport: str, **pacing) -> tuple:
    """Loss to the bit, every counter, the drops by reason and the
    extras but the wire's own tallies."""
    network = build_live_network(config)
    recorder = TraceRecorder(policy=config.policy)
    network.attach_observer(recorder)
    result = run_live(config, transport, network=network, **pacing)
    reasons = collections.Counter(
        ev.reason for ev in recorder.events if ev.kind == "drop"
    )
    extras = {
        key: value for key, value in result.extras.items()
        if key not in ("heartbeats", "reconnects")
    }
    return result.loss_of_fidelity.hex(), result.counters, reasons, extras


@pytest.mark.parametrize(
    "case", ["churn", "failures-centralized", "failures-flooding"]
)
def test_tcp_equals_inprocess_across_control_instants_at_a_fast_pace(case):
    config = _repro(case)
    expected = _outcome(config, "inprocess")
    for _run in range(5):
        assert _outcome(config, "tcp", time_scale=5000.0) == expected


def test_tcp_runs_adaptive_rewiring_exactly_as_inprocess():
    """A drift tick snapshots the counters once every row stamped
    before it is processed, as on the virtual clock."""
    config = SCALE_PRESETS["tiny"].with_(
        adaptive=AdaptivePolicy(window=20.0, threshold=0.3)
    )
    expected = _outcome(config, "inprocess")
    assert expected[3]["adaptive_rewires"] > 0
    assert _outcome(config, "tcp", time_scale=5000.0) == expected
