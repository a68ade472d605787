"""Multi-process fleet smoke: real processes, real sockets, real frames.

Deliberately small (5 repositories, 2 items) and fast (aggressive time
scale): these tests check the supervisor/worker plumbing and the
cross-process conservation and fidelity invariants, not statistics.
"""

import logging
import math
import multiprocessing
import socket
import threading
import time
import types

import pytest

from repro.engine.churn import synthetic_schedule
from repro.engine.config import SimulationConfig
from repro.engine.simulation import run_simulation
from repro.errors import ConfigurationError, SimulationError
from repro.fleet import run_fleet, supervisor
from repro.fleet.antientropy import ChildSession
from repro.fleet.worker import FleetSpec, WorkerReport, _Shard, worker_main
from repro.live.harness import run_live
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
    # The merge adds the per-pair losses in the engine's order, so the
    # metric is the same float, not one rounding away from it.
    assert result.loss_of_fidelity == single.loss_of_fidelity
    assert result.per_repository_loss == single.per_repository_loss
    assert result.extras["workers"] == 2
    assert sum(result.extras["shard_sizes"]) == CONFIG.n_repositories + 1
    # The supervisor waits to be told, it does not poll: a clean run is
    # one candidate and the wave that confirms it, give or take a
    # snapshot that went stale on the way.
    assert 1 <= result.extras["quiesce_waves"] <= 4
    assert "quiesce_timed_out" not in result.extras
    # What the supervisor no longer builds rides home with worker 0.
    assert result.tree_stats == single.tree_stats
    assert result.effective_degree == single.effective_degree
    assert result.avg_comm_delay_ms == single.avg_comm_delay_ms


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
    )
    assert result.conserved
    assert result.sent == result.delivered + result.dropped
    assert result.extras.get("reconnects", 0) >= 1
    # The generation jump triggered anti-entropy on the far side.
    assert result.counters.resyncs >= 1
    assert result.extras["resync_frames"] >= 2
    # A severed-then-resynced run still scores real fidelity.
    assert 0.0 <= result.loss_of_fidelity <= 100.0


def test_fleet_under_loss_equals_the_engine():
    """Each directed link draws its own seeded stream, in the one worker
    that hosts its sender, so the fleet loses what the engine loses."""
    config = CONFIG.with_(message_loss_probability=0.1)
    sim = run_simulation(config)
    result = run_fleet(config, workers=2, time_scale=400.0)
    assert result.counters.drops > 0
    assert result.conserved
    assert result.counters == sim.counters
    assert result.loss_of_fidelity == sim.loss_of_fidelity
    assert result.per_repository_loss == sim.per_repository_loss
    assert result.extras["per_pair_loss"] == sim.extras["per_pair_loss"]


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
    with pytest.raises(ConfigurationError, match="7 workers for 6 nodes"):
        run_fleet(CONFIG, workers=CONFIG.n_repositories + 2)
    with pytest.raises(ConfigurationError, match="n_workers must be >= 1"):
        run_fleet(CONFIG, workers=0)
    for bad in (-1.0, 0.0, math.nan):
        with pytest.raises(ConfigurationError, match="duration must be positive"):
            run_fleet(CONFIG, workers=2, duration=bad)
    assert multiprocessing.active_children() == []  # refused before any spawn


#: Inputs refused before any worker starts.  Before the check, a NaN
#: ``sever_at_s`` hung the supervisor (the instant never came due), an
#: infinite one overflowed its pipe wait, ``time_scale=0`` divided by
#: zero after the workers had started and a
#: negative or NaN pace or heartbeat "ran".
BAD_FLEET_INPUTS = {
    "time-scale-zero": ({"time_scale": 0.0}, "time_scale must be positive"),
    "time-scale-negative": ({"time_scale": -60.0}, "time_scale must be positive"),
    "time-scale-nan": ({"time_scale": math.nan}, "time_scale must be positive"),
    "heartbeat-negative": ({"heartbeat_interval_s": -1.0}, "heartbeat_interval_s"),
    "heartbeat-nan": ({"heartbeat_interval_s": math.nan}, "heartbeat_interval_s"),
    "sever-at-nan": ({"sever_at_s": math.nan}, "sever_at_s must be finite"),
    "sever-at-inf": ({"sever_at_s": math.inf}, "sever_at_s must be finite"),
    "sever-at-negative": ({"sever_at_s": -5.0}, "sever_at_s must be finite"),
}


@pytest.mark.parametrize(
    "bad, message", BAD_FLEET_INPUTS.values(), ids=BAD_FLEET_INPUTS
)
def test_fleet_refuses_bad_inputs_before_any_worker_starts(bad, message, monkeypatch):
    def no_workers(*args, **kwargs):
        raise AssertionError("a worker context was opened for a refused run")

    monkeypatch.setattr(multiprocessing, "get_context", no_workers)
    with pytest.raises(ConfigurationError, match=message):
        run_fleet(CONFIG, workers=2, **{"time_scale": 600.0, "sever_at_s": 5.0, **bad})
    assert multiprocessing.active_children() == []


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


def test_an_open_resync_session_is_pending_and_not_idle():
    """A resync frame on the wire is in no queue and no counter; only
    the session waiting for it says the shard is not done.  At the
    parent commit ``pending()`` was 0 here and two equal polls could end
    the run with the session open and its cost never charged."""
    supervisor_end, worker_end = multiprocessing.Pipe()
    shard = _Shard(0, FleetSpec(config=CONFIG, n_workers=1), worker_end)
    child = min(shard.local_repos)
    key = (child, 0)
    session = shard.sessions[key] = ChildSession(child, 0, {0: 0})
    assert shard.pending() == 1

    shard.settled()  # not told to quiesce yet: going idle is not news
    shard.sessions.clear()
    shard.settled()
    assert not supervisor_end.poll(0)

    shard.sessions[key] = session
    shard.quiescing = True
    shard.settled()  # a delivery landed, but the session is still out
    assert not supervisor_end.poll(0)
    shard._finish_session(key, session)
    assert shard.pending() == 0
    assert supervisor_end.recv() == ("idle", 0, 0, 0, 0)
    assert not supervisor_end.poll(0)  # exactly one
    assert shard.network.counters.resyncs == 1


def test_an_anti_entropy_transfer_is_logged_but_serves_no_client():
    """A finished session's transfer is a sync entry: scored like any
    copy, but no delivery, so the repository's clients are not served it."""
    supervisor_end, worker_end = multiprocessing.Pipe()
    try:
        config = CONFIG.with_(clients_per_repository=3)
        shard = _Shard(0, FleetSpec(config=config, n_workers=1), worker_end)
        network = shard.network
        child = min(shard.local_repos)
        log = network.repositories[child].deliveries[0]
        session = shard.sessions[(child, 0)] = ChildSession(child, 0, {0: 0})
        session.missing.append((0, 1, 1e9))  # would move every client
        shard._finish_session((child, 0), session)
        assert log[-1] == 1e9 and len(log) == 4
        network.reconfig.serve_clients(
            network.setup.client_tolerances, network.setup.traces
        )
        assert network.setup.client_tolerances[(child, 0)].size == 3
        assert network.counters.client_checks == 0
    finally:
        supervisor_end.close()
        worker_end.close()


# -- the supervisor's loop without processes: real pipes, scripted workers --


class _ScriptedWorker(threading.Thread):
    """Plays one worker's side of the control protocol from a script of
    ``("send", message)``, ``("expect", command tag)``, ``("pause",
    seconds)`` and ``("hang up", None)`` steps."""

    def __init__(self, conn, script) -> None:
        super().__init__(daemon=True)
        self.conn, self.script = conn, script
        self.error: BaseException | None = None
        self.heard: list[str] = []

    def run(self) -> None:
        try:
            for action, what in self.script:
                if action == "send":
                    self.conn.send(what)
                elif action == "pause":
                    time.sleep(what)
                elif action == "hang up":
                    self.conn.close()
                else:
                    assert self.conn.poll(20.0), f"no {what!r} within 20 s"
                    self.heard.append(self.conn.recv()[0])
                    assert self.heard[-1] == what
        except BaseException as exc:  # read by the test after join
            self.error = exc


def _supervise_scripted(*scripts, time_scale=60.0, sever_at_s=None):
    """``supervise`` over one real pipe per script; every script must
    have been played to its end by the time it returns or raises."""
    pipes = [multiprocessing.Pipe() for _ in scripts]
    workers = [
        _ScriptedWorker(worker_end, script)
        for (_supervisor_end, worker_end), script in zip(pipes, scripts)
    ]
    for worker in workers:
        worker.start()
    try:
        return supervisor.supervise(
            [s for s, _w in pipes],
            time_scale=time_scale,
            sever_at_s=sever_at_s,
        )
    finally:
        for worker in workers:
            worker.join(timeout=20.0)
            assert not worker.is_alive()
            assert worker.error is None, worker.error


def _prologue(worker, *, source=False):
    script = [("send", ("ready", worker, 5000 + worker)), ("expect", "start")]
    if source:
        script.append(("send", ("replay-done", worker)))
    return script + [("expect", "quiesce")]


def _epilogue(worker, snapshot):
    sent, delivered, dropped, _pending = snapshot
    report = WorkerReport(worker=worker, sent=sent, delivered=delivered, dropped=dropped)
    return [("expect", "finish"), ("send", ("report", worker, report))]


def _wave(worker, snapshot):
    return [("expect", "stats?"), ("send", ("stats", worker, *snapshot))]


def _idle(worker, snapshot):
    return ("send", ("idle", worker, *snapshot[:3]))  # pending 0 goes unsaid


@pytest.fixture
def no_sleeping(monkeypatch):
    """The supervisor may block on its pipes, never on a timer."""

    def sleep(_seconds):
        raise AssertionError("the supervisor slept")

    monkeypatch.setattr(
        supervisor,
        "time",
        types.SimpleNamespace(
            monotonic=time.monotonic, perf_counter=time.perf_counter, sleep=sleep
        ),
    )


def test_supervisor_confirms_a_candidate_with_one_wave(no_sleeping):
    a, b = (3, 1, 0, 0), (0, 2, 0, 0)
    reports, extras = _supervise_scripted(
        _prologue(0, source=True) + [_idle(0, a)] + _wave(0, a)
        + _epilogue(0, a),
        _prologue(1) + [_idle(1, b)] + _wave(1, b) + _epilogue(1, b),
    )
    assert extras == {"quiesce_waves": 1}
    assert [(r.worker, r.sent, r.delivered) for r in reports] == [(0, 3, 1), (1, 0, 2)]


def test_supervisor_waits_for_a_second_candidate_after_a_refuted_wave(no_sleeping):
    """Worker 1 takes a row and sends one between pushing ``idle`` and
    answering the wave: the candidate was stale, the wave says so, and
    the run ends only on the candidate worker 1's next push completes."""
    a, b_stale, b = (3, 2, 0, 0), (0, 1, 0, 0), (1, 2, 0, 0)
    _reports, extras = _supervise_scripted(
        _prologue(0, source=True) + [_idle(0, a)] + _wave(0, a)
        + _wave(0, a) + _epilogue(0, a),
        _prologue(1) + [_idle(1, b_stale)] + _wave(1, b)
        + [_idle(1, b)] + _wave(1, b) + _epilogue(1, b),
    )
    assert extras == {"quiesce_waves": 2}


def test_supervisor_gives_up_at_the_deadline_and_says_what_was_left(
    no_sleeping, monkeypatch, caplog
):
    """Worker 1 never runs out of work.  The wait ends at the deadline
    (the only timer in it), one last wave names the residual for the
    log, and the merge will charge it to drops."""
    monkeypatch.setattr(supervisor, "QUIESCE_TIMEOUT_S", 0.2)
    logger = logging.getLogger("repro.fleet.supervisor")
    logger.addHandler(caplog.handler)
    a, b = (5, 1, 0, 0), (0, 2, 0, 3)
    try:
        reports, extras = _supervise_scripted(
            _prologue(0, source=True) + [_idle(0, a)] + _wave(0, a)
            + _epilogue(0, a),
            _prologue(1) + _wave(1, b) + _epilogue(1, b),
        )
    finally:
        logger.removeHandler(caplog.handler)
    assert extras == {"quiesce_timed_out": True, "quiesce_waves": 1}
    # (Once, however many handlers the logger tree hands it to.)
    (warning,) = {
        r.getMessage() for r in caplog.records if r.levelno == logging.WARNING
    }
    assert "2 rows neither delivered nor dropped" in warning
    assert "pending by worker {0: 0, 1: 3}" in warning
    merged = supervisor.merge_reports(reports, extras=extras)
    assert merged.dropped == 2 and merged.conserved
    assert merged.extras["quiesce_timed_out"] is True


def test_supervisor_raises_a_fatal_that_arrives_during_the_wait(no_sleeping):
    with pytest.raises(SimulationError, match="(?s)worker 1 crashed.*node bug"):
        _supervise_scripted(
            _prologue(0, source=True) + [_idle(0, (1, 0, 0, 0))],
            _prologue(1)
            + [("send", ("fatal", 1, "Traceback ...\nRuntimeError: node bug"))],
        )


def test_supervisor_stops_listening_to_a_worker_that_has_reported(no_sleeping):
    """A worker process exits as soon as its report is out, and its pipe
    then reads as ready with nothing in it but end-of-file.  Worker 1 is
    still scoring: that silence is worker 0 being done, not dead."""
    a, b = (3, 1, 0, 0), (0, 2, 0, 0)
    reports, _extras = _supervise_scripted(
        _prologue(0, source=True) + [_idle(0, a)] + _wave(0, a) + _epilogue(0, a)
        + [("hang up", None)],
        _prologue(1) + [_idle(1, b)] + _wave(1, b)
        + [("expect", "finish"), ("pause", 0.1)] + _epilogue(1, b)[1:],
    )
    assert [r.worker for r in reports] == [0, 1]


def test_supervisor_severs_on_time_then_quiesces(no_sleeping):
    """A pending severance is the one other timer: ``quiesce`` waits for
    it even when the replay is already through."""
    a = (0, 0, 0, 0)
    script = (
        [("send", ("ready", 0, 5000)), ("expect", "start")]
        + [("send", ("replay-done", 0)), ("expect", "sever"), ("expect", "quiesce")]
        + [_idle(0, a)] + _wave(0, a) + _epilogue(0, a)
    )
    started = time.monotonic()
    _reports, extras = _supervise_scripted(script, time_scale=100.0, sever_at_s=10.0)
    assert time.monotonic() - started >= 0.1  # 10 simulated seconds at 100x
    assert extras == {"quiesce_waves": 1}
