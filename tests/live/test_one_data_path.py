"""One data path, one judgement: the runtime both transports drive.

Loss and failures are judged by ``WireRuntime`` itself, by the engine's
rule -- a down link and then the Bernoulli draw at the *send* instant, a
crashed destination at the *arrival* stamp -- against the core's sets as
the control timeline left them, so every test here runs twice, on the
virtual clock and on a ``TcpWire`` whose links are stubs: each test
applies the timeline entries itself, as the due queue would, and nothing
waits for a wall clock.
"""

import asyncio
import socket
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.churn import schedule_for_config
from repro.engine.config import SimulationConfig
from repro.engine.failures import (
    FailureEvent,
    FailureSchedule,
    failures_for_config,
)
from repro.engine.reconfig import LinkLoss
from repro.engine.simulation import run_simulation
from repro.live.harness import build_live_network, run_live
from repro.live.protocol import Forwards
from repro.live.transport import TcpWire, VirtualWire
from repro.obs.trace import TraceRecorder

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "properties"))
from example_counts import examples  # noqa: E402

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


class _Draws(dict):
    """Stands in for the per-link streams: counts the loss draws per
    ``(src, dst)`` link and answers every one with the same value."""

    def __init__(self, value: float) -> None:
        super().__init__()
        self.value = value

    def stream(self, link):
        def random() -> float:
            self[link] = self.get(link, 0) + 1
            return self.value

        return random


class _StubLink(list):
    """A link as dispatch and TCP's control gate see it: a queue, and
    what its pump took.  No socket opens; :func:`apply` lands the rows."""

    taken = 0

    @property
    def queue(self):
        return self

    def put_nowait(self, row) -> bool:
        self.append(row)
        return False

    def sever(self) -> None:
        pass


def virtual(network):
    return VirtualWire(network)


def tcp(network):
    runtime = TcpWire(network)
    runtime.due.epoch = time.monotonic()  # a control's wall budget is whole
    runtime.links = {dst: _StubLink() for dst in network.repositories}
    runtime.routes = dict(runtime.links)
    return runtime


def apply(runtime, event) -> None:
    """Apply one timeline entry at its instant, as the due queue does:
    TCP declines it while a row is out on a link, so land those first
    (what the virtual wire holds is on its heap already)."""
    for link in runtime.links.values():
        if link:
            assert runtime.control(event.time, event) is False
            out, link[:] = list(link), []
            link.taken += len(out)
            runtime._on_frame(Forwards(out))
    assert runtime.control(event.time, event) is not False


@pytest.fixture(params=[virtual, tcp])
def judged(request, monkeypatch):
    """``judged(draw)`` -> (runtime, draws, drop spans)."""

    def build(draw: float):
        draws = _Draws(draw)
        # Each link's stream, created on its first draw, is the stub's.
        monkeypatch.setattr(
            LinkLoss, "__missing__",
            lambda loss, link: loss.setdefault(link, draws.stream(link)),
        )
        network = build_live_network(CONFIG)
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
    down, up = SCHEDULE.events[:2]
    in_flight = row(1, 10.5, seq=1)
    runtime.dispatch([in_flight], 9.0)  # sent just before the link goes down
    assert draws == {(0, 1): 1} and drops() == []
    apply(runtime, down)
    runtime.dispatch([row(1, 10.2, seq=2)], 10.0)  # sent at the down instant
    assert drops() == [("partition", 10.0, 1, 0, 1)]
    assert draws == {(0, 1): 1}  # the down link ate the row ahead of any draw
    runtime.dispatch([row(1, 15.0, seq=4, src=3)], 15.0)  # another link
    assert draws == {(0, 1): 1, (3, 1): 1}
    apply(runtime, up)
    runtime.dispatch([row(1, 20.3, seq=3)], 20.0)  # up again at the up instant
    assert draws == {(0, 1): 2, (3, 1): 1} and len(drops()) == 1
    counters = runtime.counters
    assert (counters.drops, counters.deliveries) == (1, 0)
    # In flight when its link went down: delivered, as the engine does.
    runtime.deliver(in_flight)
    assert (counters.drops, counters.deliveries) == (1, 1) and len(drops()) == 1


def test_a_lost_row_is_a_loss_drop_stamped_at_the_send_instant(judged):
    runtime, draws, drops = judged(0.0)  # every draw loses
    runtime.dispatch([row(1, 9.5, seq=1), row(1, 12.5, seq=2)], 9.0)
    apply(runtime, SCHEDULE.events[0])  # link 0 -> 1 goes down at 10
    runtime.dispatch([row(1, 12.5, seq=3)], 12.0)
    assert drops() == [
        ("loss", 9.0, 0, 0, 1), ("loss", 9.0, 1, 0, 1), ("partition", 12.0, 2, 0, 1),
    ]
    assert draws == {(0, 1): 2}


def test_a_crash_is_judged_at_the_arrival_stamp(judged):
    runtime, _draws, drops = judged(0.999)
    crash, recover = SCHEDULE.events[2:]
    runtime.deliver(row(2, 29.9, seq=1))
    apply(runtime, crash)
    runtime.deliver(row(2, 30.0, seq=2))  # arrives at the crash instant
    runtime.deliver(row(1, 35.0, seq=5))  # somebody else's crash
    runtime.deliver(row(2, 39.9, seq=3))
    apply(runtime, recover)
    runtime.deliver(row(2, 40.0, seq=4))  # arrives at the recovery instant
    assert drops() == [("crash", 30.0, 1, 0, 2), ("crash", 39.9, 2, 0, 2)]
    assert (runtime.counters.deliveries, runtime.counters.drops) == (3, 2)


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


def _drops(recorder: TraceRecorder) -> list:
    return sorted(
        (ev.reason, ev.time, ev.update_id, ev.node, ev.dst)
        for ev in recorder.events
        if ev.kind == "drop"
    )


@settings(max_examples=examples(12), deadline=None)
@given(
    joins=st.integers(0, 1),
    departs=st.integers(0, 3),
    updates=st.integers(0, 1),
    crashes=st.integers(0, 2),
    partitions=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
def test_inprocess_drops_by_reason_equal_the_engines_over_drawn_schedules(
    joins, departs, updates, crashes, partitions, seed
):
    """The wire reads the core's ``departed`` / ``crashed`` /
    ``down_links`` as it releases each row, and the engine's loop reads
    them as it pops each event: over drawn churn and failure schedules
    the two drop the same rows, for the same reason, at the same
    instant."""
    # Half-second computation queues rows behind each other, so copies
    # are in flight toward a repository when it departs or crashes.
    base = SimulationConfig(
        n_repositories=10, n_routers=20, n_items=4, trace_samples=200,
        comp_delay_ms=500.0, message_loss_probability=0.05, seed=seed,
    )
    config = base.with_(
        churn=schedule_for_config(base, joins=joins, departs=departs, updates=updates),
        failures=failures_for_config(base, crashes=crashes, partitions=partitions),
    )
    engine = TraceRecorder(policy=config.policy)
    run_simulation(config, observer=engine)
    live = TraceRecorder(policy=config.policy)
    network = build_live_network(config)
    network.attach_observer(live)
    run_live(config, network=network)
    assert _drops(live) == _drops(engine)


def test_an_inprocess_run_needs_no_event_loop_and_no_socket(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the in-process plane reached for asyncio or a socket")

    for name in ("run", "new_event_loop", "get_event_loop", "create_task",
                 "ensure_future", "Task"):
        monkeypatch.setattr(asyncio, name, refuse)
    monkeypatch.setattr(socket, "socket", refuse)
    lossy = CONFIG.with_(message_loss_probability=0.05, failures=None)
    config = lossy.with_(failures=failures_for_config(lossy, crashes=1, partitions=1))
    result = run_live(config, "inprocess")
    assert result.conserved and result.delivered > 0 and result.dropped > 0
