"""Fleet tracing: spans travel home in worker reports, results untouched.

Real processes and real sockets, so wall-clock fields are normalized;
everything else -- counters, losses, conservation totals, extras -- must
be identical between a traced and an untraced 2-worker fleet run, and
the merged span stream must reconcile exactly against the merged
``CostCounters``.  Heartbeats are disabled so neither run carries
wall-timing-dependent extras.
"""

from __future__ import annotations

import dataclasses
import socket

import pytest

from repro.engine.config import SimulationConfig
from repro.fleet import run_fleet
from repro.live.harness import build_live_network, run_live
from repro.obs.trace import TraceRecorder

pytestmark = pytest.mark.live

CONFIG = SimulationConfig(
    n_repositories=5, n_routers=15, n_items=2, trace_samples=80
)

FLEET_KNOBS = dict(
    workers=2, duration=40.0, time_scale=400.0, heartbeat_interval_s=0
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


def _normalize(result):
    extras = dict(result.extras)
    extras.pop("worker_wall_seconds", None)
    extras.pop("worker_peak_rss_mb", None)
    return dataclasses.replace(result, wall_seconds=0.0, extras=extras)


def test_traced_fleet_is_identical_and_reconciles():
    untraced = run_fleet(CONFIG, **FLEET_KNOBS)
    recorder = TraceRecorder(policy=CONFIG.policy)
    traced = run_fleet(CONFIG, trace_recorder=recorder, **FLEET_KNOBS)

    assert _normalize(traced) == _normalize(untraced)

    totals = recorder.totals()
    counters = traced.counters
    assert totals.messages == counters.messages
    assert totals.source_checks == counters.source_checks
    assert totals.repository_checks == counters.repository_checks
    assert totals.deliveries == counters.deliveries
    assert totals.drops == counters.drops

    # Worker telemetry merged under per-worker gauge prefixes.
    snapshot = recorder.metrics.snapshot()
    assert snapshot["counters"]["fleet.reconnects"] == 0
    assert "fleet.queue_stalls" in snapshot["counters"]


def test_fleet_trace_ids_are_stable_across_shards():
    """A sharded trace tells the same story as the single-process one."""
    fleet_recorder = TraceRecorder(policy=CONFIG.policy)
    run_fleet(CONFIG, trace_recorder=fleet_recorder, **FLEET_KNOBS)

    live_recorder = TraceRecorder(policy=CONFIG.policy)
    network = build_live_network(CONFIG)
    network.attach_observer(live_recorder)
    run_live(CONFIG, "inprocess", duration=40.0, network=network)

    def spans(recorder, kind):
        return {
            (ev.update_id, ev.item_id, ev.node, ev.dst)
            for ev in recorder.events
            if ev.kind == kind
        }

    assert spans(fleet_recorder, "forward") == spans(live_recorder, "forward")
    assert spans(fleet_recorder, "deliver") == spans(live_recorder, "deliver")
