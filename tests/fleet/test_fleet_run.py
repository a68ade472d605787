"""Multi-process fleet smoke: real processes, real sockets, real frames.

Deliberately small (5 repositories, 2 items) and fast (aggressive time
scale): these tests check the supervisor/worker plumbing and the
cross-process conservation and fidelity invariants, not statistics.
"""

import multiprocessing
import socket
import threading
import time

import pytest

from repro.engine.churn import synthetic_schedule
from repro.engine.config import SimulationConfig
from repro.errors import ConfigurationError, SimulationError
from repro.fleet import run_fleet, run_fleet_loadgen
from repro.fleet.worker import FleetSpec, worker_main
from repro.live.harness import run_live
from repro.live.loadgen import run_loadgen
from repro.live.nodes import RepositoryNode

pytestmark = pytest.mark.live

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


def test_fleet_matches_single_process_exactly():
    single = run_live(CONFIG, "inprocess", duration=40.0)
    result = run_fleet(CONFIG, workers=2, duration=40.0, time_scale=400.0)
    assert result.transport == "fleet"
    assert result.conserved
    assert result.dropped == 0
    assert result.delivered == result.sent
    # Filtering decisions depend only on values and logical arrival
    # stamps, both of which the fleet reproduces bit-for-bit.
    assert result.sent == single.sent
    assert result.loss_of_fidelity == pytest.approx(
        single.loss_of_fidelity, abs=0.5
    )
    assert result.extras["workers"] == 2
    assert sum(result.extras["shard_sizes"]) == CONFIG.n_repositories + 1


def test_fleet_workers_exit_without_a_traceback(capfd):
    """A worker that returns while an inbound handler is still closing
    its stream has asyncio report the cancelled handler on stderr; the
    race went the wrong way in most runs, so a few cycles pin it.
    ``capfd`` captures at the fd level, which the spawned workers share."""
    for _cycle in range(3):
        result = run_fleet(CONFIG, workers=2, duration=40.0, time_scale=400.0)
        assert result.conserved
    assert "Traceback" not in capfd.readouterr().err


def test_fleet_sever_reconnects_resyncs_and_conserves():
    result = run_fleet(
        CONFIG,
        workers=2,
        duration=40.0,
        time_scale=100.0,
        heartbeat_interval_s=0.05,
        sever_at_s=10.0,
        sever_worker=0,
    )
    assert result.conserved
    assert result.sent == result.delivered + result.dropped
    assert result.extras["severed_worker"] == 0
    assert result.extras.get("reconnects", 0) >= 1
    # The generation jump triggered anti-entropy on the far side.
    assert result.counters.resyncs >= 1
    assert result.extras["resync_frames"] >= 2
    # A severed-then-resynced run still scores real fidelity.
    assert 0.0 <= result.loss_of_fidelity <= 100.0


def test_fleet_loadgen_agrees_with_single_process():
    fleet = run_fleet_loadgen(
        CONFIG, 8, workers=2, duration=40.0, time_scale=400.0
    )
    single = run_loadgen(CONFIG, 8, duration=40.0)
    assert fleet.result.conserved
    assert fleet.n_requirements == single.n_requirements
    assert fleet.n_met == single.n_met
    assert [c.met for c in fleet.clients] == [c.met for c in single.clients]
    assert fleet.result.extras["client_messages"] > 0


def test_fleet_rejects_unsupported_configs():
    schedule = synthetic_schedule(
        repositories=range(1, CONFIG.n_repositories + 1),
        n_items=CONFIG.n_items,
        span_s=float(CONFIG.trace_samples - 1),
        joins=1,
        departs=1,
        updates=1,
        seed=1,
    )
    with pytest.raises(ConfigurationError):
        run_fleet(CONFIG.with_(churn=schedule), workers=2)
    with pytest.raises(ConfigurationError):
        run_fleet(
            CONFIG.with_(message_loss_probability=0.1), workers=2
        )
    with pytest.raises(ConfigurationError):
        run_fleet(CONFIG, workers=CONFIG.n_repositories + 2)


def test_fleet_worker_reports_a_raising_node_as_fatal(monkeypatch):
    """A due-queue action that raises stops the shard's schedule; the
    worker must tell the supervisor (which raises on ``fatal``) instead
    of idling until somebody gives up on it.  Driven in a thread so the
    node can be broken: a spawned worker would import a healthy one."""

    def broken(self, item_id, value, tag, seq, now):
        raise RuntimeError("node bug")

    monkeypatch.setattr(RepositoryNode, "receive", broken)
    supervisor, worker = multiprocessing.Pipe()
    spec = FleetSpec(config=CONFIG, n_workers=1, duration=40.0, time_scale=400.0)
    raised = []

    def body():
        try:
            worker_main(0, spec, worker)
        except SimulationError as exc:  # worker_main re-raises after reporting
            raised.append(exc)

    thread = threading.Thread(target=body)
    thread.start()
    try:
        assert supervisor.poll(20.0)
        tag, worker_id, port = supervisor.recv()
        assert (tag, worker_id) == ("ready", 0)
        supervisor.send(("start", {0: port}, time.monotonic()))
        assert supervisor.poll(20.0)
        tag, worker_id, traceback_text = supervisor.recv()
    finally:
        supervisor.send(("finish",))  # a worker that did not die must not linger
        thread.join(timeout=20.0)
    assert (tag, worker_id) == ("fatal", 0)
    assert "due-queue action raised" in traceback_text
    assert "RuntimeError: node bug" in traceback_text
    assert len(raised) == 1 and not thread.is_alive()
