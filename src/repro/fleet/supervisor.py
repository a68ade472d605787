"""The fleet supervisor: launch workers, coordinate, merge the result.

:func:`run_fleet` is the fleet twin of :func:`~repro.live.harness.
run_live`: it spawns N worker processes (:mod:`repro.fleet.worker`),
conducts them over their pipes (:func:`supervise`) and folds the
per-worker reports into one :class:`~repro.live.harness.LiveRunResult`
via :func:`merge_reports`.  It builds nothing itself: every worker
rebuilds the setup and the shard plan from the frozen config, and what
the result needs of them (tree shape, degree, mean delay) rides home in
the source owner's report.

The control plane is event-driven.  The workers' messages are ``ready``
(port bound), ``replay-done`` (source owner: the source schedule is
through), ``idle`` (its counters, unasked, each time the worker runs
out of local work once told to ``quiesce``), ``stats`` (the counters and
what is pending, asked for), ``report`` and ``fatal``; the supervisor's
are ``start`` (port map + epoch: its own monotonic reading as it sends
the command), ``sever``, ``quiesce``, ``stats?`` and ``finish``.  The
supervisor blocks on the pipes until a worker speaks; *when* the fleet
is quiet is decided by :mod:`repro.fleet.quiescence` from the pushed
snapshots and one confirming ``stats?`` wave.

Conservation is enforced at the merge: a cross-worker frame is counted
``sent`` by its sender and ``delivered`` by its receiver, so per-worker
reports do not individually conserve -- only their sum can.  Whatever
a timed-out quiescence wait leaves in flight is reconciled into
``dropped`` (wire level) and ``counters.drops`` (repository-plane
level), keeping both ``sent == delivered + dropped`` and ``messages ==
deliveries + drops`` exact, the same invariants the single-process
transports end with.

The fleet runs static membership on a reliable local wire: churn,
failure schedules, adaptive re-optimization and seeded message loss
are all rejected up front rather than silently diverging from the
engine's semantics for them.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from multiprocessing.connection import wait
from pathlib import Path

import repro
from repro.core.fidelity import FidelityAccumulator
from repro.core.metrics import CostCounters
from repro.engine.builder import build_setup
from repro.engine.config import SimulationConfig
from repro.errors import ConfigurationError, SimulationError
from repro.fleet.quiescence import QuiescenceDetector, Snapshot, residual
from repro.fleet.sharding import check_worker_count
from repro.fleet.worker import FleetSpec, WorkerReport, worker_main
from repro.live.harness import LiveRunResult
from repro.live.loadgen import LoadgenReport, client_reports, generate_clients
from repro.live.wire import QUIESCE_TIMEOUT_S, reconcile, wall_factor
from repro.obs.logsetup import get_logger

__all__ = ["merge_reports", "run_fleet", "run_fleet_loadgen", "supervise"]

log = get_logger("repro.fleet.supervisor")

#: Wall seconds the workers get to build, bind and say ``ready``, to
#: answer a ``stats?`` wave, and (at the 60x default pace, stretched by
#: ``wall_factor``) to score and send their reports.
READY_TIMEOUT_S = 120.0
WAVE_TIMEOUT_S = 30.0
REPORT_TIMEOUT_S = 60.0


def merge_reports(
    reports: list[WorkerReport],
    *,
    wall_seconds: float = 0.0,
    extras: dict | None = None,
) -> LiveRunResult:
    """Fold per-worker reports into one fleet-wide result.

    Pure and deterministic over the report list: counters add, fidelity
    re-accumulates from the per-pair losses, the network's shape is read
    off the source owner's report (the one that carries it), and both
    conservation invariants are restored by attributing the residual
    in-flight count to drops.

    Raises:
        SimulationError: when the fleet delivered more than it sent or
            repositories recorded more deliveries than messages --
            double counting no reconciliation should paper over.
    """
    counters = CostCounters()
    accumulator = FidelityAccumulator()
    per_pair: dict[tuple[int, int], float] = {}
    client_loss: dict[int, dict[int, float]] = {}
    sent = delivered = dropped = 0
    span = 0.0
    tree_stats, effective_degree, avg_comm_delay_ms = None, 0, 0.0
    for report in reports:
        if report.tree_stats is not None:
            tree_stats = report.tree_stats
            effective_degree = report.effective_degree
            avg_comm_delay_ms = report.avg_comm_delay_ms
        counters.merge(report.counters)
        sent += report.sent
        delivered += report.delivered
        dropped += report.dropped
        span = max(span, report.span_s)
        for (repo, item_id), loss in report.per_pair_loss.items():
            accumulator.add(repo, item_id, loss)
            per_pair[(repo, item_id)] = loss
        client_loss.update(report.client_loss)

    # In flight at the finish line: the wire ate it, on both planes.
    dropped = reconcile(sent, delivered, dropped, counters)

    merged_extras: dict = {
        "per_pair_loss": per_pair,
        "workers": len(reports),
        "shard_sizes": [r.n_local_nodes for r in sorted(reports, key=lambda r: r.worker)],
        "queue_stalls": sum(r.queue_stalls for r in reports),
        "protocol_errors": sum(r.protocol_errors for r in reports),
        "resync_frames": sum(r.resync_frames for r in reports),
        # Replay-window wall time, from the ``start`` command to the
        # report (the quiescence wait included); excludes the
        # per-process spawn + rebuild that precedes it.
        "worker_wall_seconds": max((r.wall_seconds for r in reports), default=0.0),
    }
    heartbeats = sum(r.heartbeats for r in reports)
    if heartbeats:
        merged_extras["heartbeats"] = heartbeats
    reconnects = sum(r.reconnects for r in reports)
    if reconnects:
        merged_extras["reconnects"] = reconnects
    if client_loss or any(r.client_messages for r in reports):
        merged_extras["client_loss"] = client_loss
        merged_extras["client_messages"] = sum(r.client_messages for r in reports)
    if extras:
        merged_extras.update(extras)

    return LiveRunResult(
        loss_of_fidelity=accumulator.system_loss(),
        per_repository_loss=accumulator.per_repository(),
        counters=counters,
        tree_stats=tree_stats,
        effective_degree=effective_degree,
        avg_comm_delay_ms=avg_comm_delay_ms,
        sim_span_s=span,
        transport="fleet",
        wall_seconds=wall_seconds,
        sent=sent,
        delivered=delivered,
        dropped=dropped,
        extras=merged_extras,
    )


def _validate(config: SimulationConfig) -> None:
    if config.churn is not None:
        raise ConfigurationError(
            "the fleet runs static membership; strip the churn schedule"
        )
    if config.failures is not None:
        raise ConfigurationError(
            "the fleet does not execute failure schedules yet; use the "
            "single-process live transports for failure injection"
        )
    if config.adaptive is not None:
        raise ConfigurationError(
            "adaptive re-optimization needs virtual-time counter "
            "snapshots; the fleet cannot provide them"
        )
    if config.message_loss_probability > 0:
        raise ConfigurationError(
            "the fleet wire is reliable TCP; seeded message loss is a "
            "single-process live feature"
        )


def _incoming(conns, timeout: float | None) -> list[tuple]:
    """One message from every worker that has spoken, blocking up to
    ``timeout`` seconds (``None``: until one does) for the first.

    Raises:
        SimulationError: when a worker sent ``fatal`` (its traceback is
            the message) or closed its pipe without one.
    """
    messages = []
    for conn in wait(conns, timeout):
        try:
            message = conn.recv()
        except EOFError:
            raise SimulationError(
                "fleet worker died without a word (spawned processes "
                "must be able to import the parent __main__ module)"
            ) from None
        if message[0] == "fatal":
            raise SimulationError(f"fleet worker {message[1]} crashed:\n{message[2]}")
        messages.append(message)
    return messages


def _gather(conns, wanted: str, timeout: float, note) -> dict[int, tuple]:
    """One ``wanted`` message from every worker, by worker id; whatever
    else the workers say meanwhile goes to ``note``.

    Listens only to the workers still owed one: a worker exits once its
    ``report`` is out, and a pipe at end-of-file reads as ready.
    """
    deadline = time.monotonic() + timeout
    got: dict[int, tuple] = {}
    while len(got) < len(conns):
        remaining = deadline - time.monotonic()
        owing = [conn for worker, conn in enumerate(conns) if worker not in got]
        messages = _incoming(owing, remaining) if remaining > 0 else []
        if not messages:
            raise SimulationError(
                f"fleet worker did not answer with {wanted!r} within "
                f"{timeout:.1f}s"
            )
        for message in messages:
            if message[0] == wanted:
                got[message[1]] = message
            else:
                note(message)
    return got


def _broadcast(conns, command: tuple) -> None:
    for conn in conns:
        conn.send(command)


def supervise(
    conns,
    *,
    time_scale: float,
    sever_at_s: float | None,
    sever_worker: int,
) -> tuple[list[WorkerReport], dict]:
    """Conduct one run over the workers' pipes: ``ready`` -> ``start``
    -> ``quiesce`` -> ``finish`` -> reports.

    Blocks on the pipes, never on a timer: between ``start`` and
    ``finish`` the only time-outs are a pending severance and the
    quiescence deadline.  The decision that the fleet is quiet is
    :class:`~repro.fleet.quiescence.QuiescenceDetector`'s; this function
    feeds it the workers' pushed ``idle`` snapshots and runs the
    ``stats?`` wave it asks for.

    Args:
        conns: The supervisor's end of each worker's pipe, indexed by
            worker id.  Anything that speaks the worker's side of the
            protocol will do (the tests script it from threads).
        time_scale / sever_at_s / sever_worker: As in :func:`run_fleet`.

    Returns:
        The reports in worker-id order, and the control plane's own
        extras: ``quiesce_waves`` (``stats?`` waves run) and, only when
        the deadline passed first, ``quiesce_timed_out``.

    Raises:
        SimulationError: when a worker crashes, hangs up, stops
            answering or says something the protocol has no place for.
    """
    stretch = wall_factor(time_scale)
    detector = QuiescenceDetector(len(conns))
    replay_done = False
    waves = 0

    def note(message: tuple) -> None:
        nonlocal replay_done
        if message[0] == "replay-done":
            replay_done = True
        elif message[0] == "idle":
            detector.push(*message[1:])
        else:
            raise SimulationError(f"unexpected fleet control message {message!r}")

    def wave() -> dict[int, Snapshot]:
        nonlocal waves
        waves += 1
        _broadcast(conns, ("stats?",))
        replies = _gather(conns, "stats", WAVE_TIMEOUT_S, note)
        return {worker: message[2:] for worker, message in replies.items()}

    # Build + bind can take a while on big presets.
    ready = _gather(conns, "ready", READY_TIMEOUT_S, note)
    ports = {worker: message[2] for worker, message in ready.items()}
    log.debug("fleet: all workers ready, ports=%s", ports)

    # Simulated time zero is now.  A worker that reads the command a
    # moment later releases its first actions that much late, which the
    # open-loop replay absorbs like any other lateness.
    epoch = time.monotonic()
    _broadcast(conns, ("start", ports, epoch))

    sever_due = None if sever_at_s is None else epoch + sever_at_s / time_scale
    deadline: float | None = None  # set when `quiesce` goes out
    extras: dict = {}
    while True:
        now = time.monotonic()
        if sever_due is not None and now >= sever_due:
            conns[sever_worker].send(("sever",))
            sever_due = None
        if deadline is None:
            # A late severance fires before quiescing.
            if replay_done and sever_due is None:
                _broadcast(conns, ("quiesce",))
                deadline = now + QUIESCE_TIMEOUT_S * stretch
        elif detector.candidate():
            detector.open_wave()
            for worker, snapshot in wave().items():
                detector.answer(worker, *snapshot)
            if detector.quiet():
                break
            continue  # refuted: the worker that moved will push again
        elif now >= deadline:
            snapshots = wave()
            log.warning(
                "fleet: not quiet %.1fs after the replay, finishing anyway: "
                "%d rows neither delivered nor dropped (reconciled as "
                "drops), pending by worker %s",
                QUIESCE_TIMEOUT_S * stretch,
                residual(snapshots),
                {worker: s[3] for worker, s in sorted(snapshots.items())},
            )
            extras["quiesce_timed_out"] = True
            break
        wake = sever_due if sever_due is not None else deadline
        for message in _incoming(conns, None if wake is None else max(0.0, wake - now)):
            note(message)

    log.debug("fleet: quiesced, collecting reports")
    _broadcast(conns, ("finish",))
    reports = _gather(conns, "report", REPORT_TIMEOUT_S * stretch, note)
    extras["quiesce_waves"] = waves
    return [message[2] for _worker, message in sorted(reports.items())], extras


def run_fleet(
    config: SimulationConfig,
    *,
    workers: int,
    duration: float | None = None,
    time_scale: float = 60.0,
    heartbeat_interval_s: float = 0.5,
    n_clients: int = 0,
    client_seed: int | None = None,
    sever_at_s: float | None = None,
    sever_worker: int = 0,
    trace_recorder=None,
) -> LiveRunResult:
    """Run one config across a multi-process fleet and merge the result.

    Args:
        config: The run's full parameterisation; must be churn-,
            failure-, adaptive- and loss-free (see module docstring).
        workers: Worker process count (1 is a degenerate all-local
            fleet, handy for debugging).
        duration: Optional replay truncation, as in ``run_live``.
        time_scale: Simulated seconds per wall second.
        heartbeat_interval_s: Per-link liveness probe interval (0
            disables).
        n_clients: Synthetic loadgen clients to shard across workers
            (0 = no client plane).
        client_seed: Seed for the client population (config seed when
            ``None``).
        sever_at_s: Optional fault-injection hook -- at this simulated
            time, ``sever_worker``'s outbound links are severed so the
            reconnect + anti-entropy path runs for real.
        sever_worker: The worker the severance hits.
        trace_recorder: Optional :class:`~repro.obs.trace.TraceRecorder`
            to trace the fleet into.  Workers record spans shard-locally
            and ship them home in their reports; the supervisor absorbs
            them (in worker-id order, ids stable across shards) plus
            each worker's metrics snapshot (gauges prefixed
            ``worker{N}.``) into this recorder.  Out-of-band by design:
            the returned :class:`LiveRunResult` is bit-identical with or
            without it.

    Raises:
        ConfigurationError: on unsupported configs or worker counts.
        SimulationError: when a worker crashes or stops responding.
    """
    _validate(config)
    # Every worker builds the setup and plans the shards; the supervisor
    # needs neither, only to refuse a fleet no plan can fill.
    check_worker_count(workers, config.n_repositories + 1)
    spec = FleetSpec(
        config=config,
        n_workers=workers,
        duration=duration,
        time_scale=time_scale,
        n_clients=n_clients,
        client_seed=client_seed,
        heartbeat_interval_s=heartbeat_interval_s,
        trace=trace_recorder is not None,
    )

    ctx = multiprocessing.get_context("spawn")
    # Spawned children re-import repro from PYTHONPATH, not from the
    # parent's already-populated sys.path; make sure they can.
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    old_pythonpath = os.environ.get("PYTHONPATH")
    parts = (old_pythonpath or "").split(os.pathsep) if old_pythonpath else []
    if src_dir not in parts:
        os.environ["PYTHONPATH"] = (
            src_dir if not old_pythonpath else src_dir + os.pathsep + old_pythonpath
        )

    conns = []
    procs = []
    wall_start = time.perf_counter()
    try:
        for worker_id in range(workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=worker_main,
                args=(worker_id, spec, child_conn),
                name=f"fleet-worker-{worker_id}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)
        log.debug("fleet: %d workers spawned (trace=%s)", workers, spec.trace)

        reports, extras = supervise(
            conns,
            time_scale=time_scale,
            sever_at_s=sever_at_s,
            sever_worker=sever_worker,
        )
        for proc in procs:
            proc.join(timeout=30.0)
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for conn in conns:
            conn.close()
        if old_pythonpath is None:
            os.environ.pop("PYTHONPATH", None)
        else:
            os.environ["PYTHONPATH"] = old_pythonpath

    if trace_recorder is not None:
        # Update ids are already fleet-global; worker-id order keeps the
        # merged stream deterministic over shard assignment.
        for report in reports:
            trace_recorder.absorb(report.spans)
            trace_recorder.metrics.absorb(
                report.metrics_snapshot, gauge_prefix=f"worker{report.worker}."
            )

    extras.update(
        workload=config.workload.name, policy=config.policy, time_scale=time_scale
    )
    if sever_at_s is not None:
        extras["severed_worker"] = sever_worker
    return merge_reports(
        reports, wall_seconds=time.perf_counter() - wall_start, extras=extras
    )


def run_fleet_loadgen(
    config: SimulationConfig,
    n_clients: int,
    *,
    workers: int,
    seed: int | None = None,
    duration: float | None = None,
    time_scale: float = 60.0,
    **fleet_knobs,
) -> LoadgenReport:
    """Shard the load generator across a fleet and merge the report.

    The population is generated from the same seeded stream the workers
    use (each worker regenerates it deterministically and hosts the
    clients of its shard's repositories), so the requirement-met table
    is computed against exactly the clients that ran.
    """
    setup = build_setup(config)
    population = generate_clients(config, n_clients, seed=seed, setup=setup)
    result = run_fleet(
        config,
        workers=workers,
        duration=duration,
        time_scale=time_scale,
        n_clients=n_clients,
        client_seed=seed,
        **fleet_knobs,
    )
    return client_reports(result, population, setup)
