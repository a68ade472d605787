"""One data path, one judgement: the runtime both transports drive.

Loss and failures are judged by ``WireRuntime`` itself, by the engine's
rule -- a down link and then the Bernoulli draw at the *send* instant, a
crashed destination at the *arrival* stamp -- so every test here runs
twice, on the virtual clock and on a ``_TcpWire`` whose links are stubs:
rows are judged by their stamps, and nothing waits for a wall clock.
"""

import asyncio
import socket
from collections import defaultdict
from types import SimpleNamespace

import pytest

from repro.engine.config import SimulationConfig
from repro.engine.failures import (
    FailureEvent,
    FailureSchedule,
    failures_for_config,
)
from repro.engine.simulation import run_simulation
from repro.live import wire
from repro.live.harness import build_live_network, run_live
from repro.live.loadgen import generate_clients
from repro.live.transport import (
    InProcessTransport,
    TcpTransport,
    _TcpWire,
    _VirtualWire,
)
from repro.obs.trace import TraceRecorder

pytestmark = pytest.mark.live

#: Link 0 -> 1 is down over [10, 20), repository 2 over [30, 40).
SCHEDULE = FailureSchedule(
    (
        FailureEvent.link_down(10.0, 0, 1),
        FailureEvent.link_up(20.0, 0, 1),
        FailureEvent.crash(30.0, 2),
        FailureEvent.recover(40.0, 2),
    )
)
CONFIG = SimulationConfig(
    n_repositories=5, n_routers=15, n_items=2, trace_samples=80,
    message_loss_probability=0.5, failures=SCHEDULE,
)


class _Draws:
    """Stands in for the seeded streams: counts the loss draws and
    answers every one with the same value."""

    def __init__(self, value: float) -> None:
        self.value, self.n = value, 0

    def stream(self, _name):
        return self

    def random(self) -> float:
        self.n += 1
        return self.value


def virtual(network):
    return _VirtualWire(InProcessTransport(), network)


def tcp(network):
    runtime = _TcpWire(TcpTransport(), network)
    # A link is its queue as far as dispatch can tell; no socket opens.
    runtime.links = defaultdict(lambda: SimpleNamespace(queue=wire.SendQueue()))
    return runtime


@pytest.fixture(params=[virtual, tcp])
def judged(request, monkeypatch):
    """``judged(draw, n_clients=0)`` -> (runtime, draws, drop spans)."""

    def build(draw: float, n_clients: int = 0):
        draws = _Draws(draw)
        monkeypatch.setattr(wire, "RandomStreams", lambda _seed: draws)
        clients = generate_clients(CONFIG, n_clients) if n_clients else None
        network = build_live_network(CONFIG, clients=clients)
        recorder = TraceRecorder(policy=CONFIG.policy)
        network.attach_observer(recorder)

        def drops() -> list:
            return [
                (ev.reason, ev.time, ev.update_id, ev.node, ev.dst)
                for ev in recorder.events
                if ev.kind == "drop"
            ]

        return request.param(network), draws, drops

    return build


def row(dst: int, arrival_s: float, seq: int, src: int = 0, item_id: int = 0) -> list:
    return [dst, arrival_s, item_id, 1.0, None, seq, src]


def test_a_link_is_judged_when_the_row_is_sent_not_when_it_arrives(judged):
    runtime, draws, drops = judged(0.999)  # every draw survives
    in_flight = row(1, 10.5, seq=1)
    runtime.dispatch([in_flight], 9.0)  # sent just before the link goes down
    assert draws.n == 1 and drops() == []
    runtime.dispatch([row(1, 10.2, seq=2)], 10.0)  # sent at the down instant
    assert drops() == [("partition", 10.0, 1, 0, 1)]
    assert draws.n == 1  # a down link eats the row ahead of the loss draw
    runtime.dispatch([row(1, 20.3, seq=3)], 20.0)  # the window is half-open
    runtime.dispatch([row(1, 15.0, seq=4, src=3)], 15.0)  # another link
    assert draws.n == 3 and len(drops()) == 1
    stats = runtime.stats
    assert (stats.sent, stats.dropped, stats.delivered) == (4, 1, 0)
    # In flight when its link went down: delivered, as the engine does.
    runtime.deliver(in_flight)
    assert stats.delivered == 1 and len(drops()) == 1
    assert runtime.network.counters.drops == 1


def test_a_lost_row_is_a_loss_drop_stamped_at_the_send_instant(judged):
    runtime, draws, drops = judged(0.0)  # every draw loses
    runtime.dispatch([row(1, 9.5, seq=1), row(1, 12.5, seq=2)], 9.0)
    runtime.dispatch([row(1, 12.5, seq=3)], 12.0)
    assert drops() == [
        ("loss", 9.0, 0, 0, 1), ("loss", 9.0, 1, 0, 1), ("partition", 12.0, 2, 0, 1),
    ]
    assert draws.n == 2


def test_a_crash_is_judged_at_the_arrival_stamp(judged):
    runtime, _draws, drops = judged(0.999)
    runtime.deliver(row(2, 29.9, seq=1))
    runtime.deliver(row(2, 30.0, seq=2))  # arrives at the crash instant
    runtime.deliver(row(2, 39.9, seq=3))
    runtime.deliver(row(2, 40.0, seq=4))  # arrives at the recovery instant
    runtime.deliver(row(1, 35.0, seq=5))  # somebody else's crash
    assert drops() == [("crash", 30.0, 1, 0, 2), ("crash", 39.9, 2, 0, 2)]
    assert runtime.stats.delivered == 3 and runtime.stats.dropped == 2


def test_client_plane_rows_are_never_judged(judged):
    runtime, draws, drops = judged(0.0, n_clients=6)  # a judged row is lost
    network = runtime.network
    client = next(c for c in network.clients.values() if c.repository == 2)
    item_id = next(iter(client.requirements))
    to_client = row(client.node, 35.0, seq=1, src=2, item_id=item_id)
    runtime.dispatch([to_client], 35.0)  # its repository is down: no matter
    runtime.deliver(to_client)
    assert draws.n == 0 and drops() == []
    stats = runtime.stats
    assert (stats.sent, stats.delivered, stats.dropped) == (1, 1, 0)
    assert client.deliveries[item_id][-1] == (35.0, 1.0)


# ---- the whole run: span for span the oracle's, and no event loop ----


def _spans(recorder: TraceRecorder) -> list:
    return sorted(
        (ev.kind, ev.update_id, ev.item_id, ev.time, ev.node, ev.dst, ev.checks,
         ev.forwarded, ev.reason or "")
        for ev in recorder.events
    )


def test_inprocess_spans_equal_the_oracles_under_failures_time_included():
    """Send-side drops carry the send instant, crash drops the arrival
    stamp -- on the live plane exactly as on the per-event oracle."""
    lossy = SimulationConfig(
        n_repositories=8, n_routers=24, n_items=3, trace_samples=150,
        message_loss_probability=0.05, seed=7,
    )
    config = lossy.with_(failures=failures_for_config(lossy, crashes=2, partitions=2))
    oracle = TraceRecorder(policy=config.policy)
    sim = run_simulation(config.with_(kernel="scalar"), observer=oracle)

    live = TraceRecorder(policy=config.policy)
    network = build_live_network(config)
    network.attach_observer(live)
    result = run_live(config, "inprocess", network=network)

    assert _spans(live) == _spans(oracle)
    assert {ev.reason for ev in live.events if ev.kind == "drop"} == {
        "loss", "partition", "crash",
    }
    assert result.counters == sim.counters
    assert result.loss_of_fidelity == sim.loss_of_fidelity


def test_an_inprocess_run_needs_no_event_loop_and_no_socket(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the in-process plane reached for asyncio or a socket")

    for name in ("run", "new_event_loop", "get_event_loop", "create_task",
                 "ensure_future", "Task"):
        monkeypatch.setattr(asyncio, name, refuse)
    monkeypatch.setattr(socket, "socket", refuse)
    lossy = CONFIG.with_(message_loss_probability=0.05, failures=None)
    config = lossy.with_(failures=failures_for_config(lossy, crashes=1, partitions=1))
    result = run_live(config, "inprocess", jitter_ms=5.0)
    assert result.conserved and result.delivered > 0 and result.dropped > 0
