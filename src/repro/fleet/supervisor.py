"""The fleet supervisor: launch workers, coordinate, merge the result.

:func:`run_fleet` is the fleet twin of :func:`~repro.live.harness.
run_live`: it computes the shard plan from the frozen config, spawns N
worker processes (:mod:`repro.fleet.worker`), hands them a shared
monotonic-clock epoch and the port map, waits for the source replay and
fleet-wide quiescence, and folds the per-worker reports into one
:class:`~repro.live.harness.LiveRunResult` via :func:`merge_reports`.

Conservation is enforced at the merge: a cross-worker frame is counted
``sent`` by its sender and ``delivered`` by its receiver, so per-worker
reports do not individually conserve -- only their sum can.  Whatever
the quiescence window leaves in flight is reconciled into ``dropped``
(wire level) and ``counters.drops`` (repository-plane level), keeping
both ``sent == delivered + dropped`` and ``messages == deliveries +
drops`` exact, the same invariants the single-process transports end
with.

The fleet runs static membership on a reliable local wire: churn,
failure schedules, adaptive re-optimization and seeded message loss
are all rejected up front rather than silently diverging from the
engine's semantics for them.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from pathlib import Path

import repro
from repro.core.fidelity import FidelityAccumulator
from repro.core.metrics import CostCounters
from repro.engine.builder import build_setup
from repro.engine.config import SimulationConfig
from repro.errors import ConfigurationError, SimulationError
from repro.fleet.sharding import plan_shards
from repro.fleet.worker import FleetSpec, WorkerReport, worker_main
from repro.live.harness import LiveRunResult
from repro.live.loadgen import LoadgenReport, client_reports, generate_clients
from repro.live.wire import QUIESCE_TIMEOUT_S, reconcile, wall_factor
from repro.obs.logsetup import get_logger

__all__ = ["merge_reports", "run_fleet", "run_fleet_loadgen"]

log = get_logger("repro.fleet.supervisor")

#: How often the supervisor polls worker stats during quiescence.
_POLL_S = 0.1


def merge_reports(
    reports: list[WorkerReport],
    *,
    tree_stats=None,
    effective_degree: int = 0,
    avg_comm_delay_ms: float = 0.0,
    wall_seconds: float = 0.0,
    extras: dict | None = None,
) -> LiveRunResult:
    """Fold per-worker reports into one fleet-wide result.

    Pure and deterministic over the report list: counters add, fidelity
    re-accumulates from the per-pair losses, and both conservation
    invariants are restored by attributing the residual in-flight count
    to drops.

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
    for report in reports:
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
        # Replay-window wall time, from the ``start`` command (the
        # barrier ahead of the epoch included) to the report; excludes
        # the per-process spawn + rebuild that precedes it.
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


def _recv(conn, supervisor_state: dict):
    """One message off ``conn``: ``fatal`` raises with the worker
    traceback, ``replay-done`` is noted in the state dict and swallowed
    (``None``), anything else is returned."""
    try:
        message = conn.recv()
    except EOFError:
        raise SimulationError(
            "fleet worker died without a word (spawned processes "
            "must be able to import the parent __main__ module)"
        ) from None
    if message[0] == "fatal":
        raise SimulationError(f"fleet worker {message[1]} crashed:\n{message[2]}")
    if message[0] == "replay-done":
        supervisor_state["replay_done"] = True
        return None
    return message


def _expect(conn, wanted: str, timeout: float, supervisor_state: dict):
    """Read ``conn`` until a ``wanted``-tagged message arrives."""
    deadline = time.monotonic() + timeout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not conn.poll(remaining):
            raise SimulationError(
                f"fleet worker did not answer with {wanted!r} within "
                f"{timeout:.1f}s"
            )
        message = _recv(conn, supervisor_state)
        if message is None:
            continue
        if message[0] == wanted:
            return message
        if message[0] != "stats":  # a stale poll answer is just superseded
            raise SimulationError(f"unexpected fleet control message {message!r}")


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
    setup = build_setup(config)
    plan = plan_shards(setup, workers)  # validates the worker count
    stretch = wall_factor(time_scale)
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
    state = {"replay_done": False}
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
        # Build + bind can take a while on big presets.
        ports: dict[int, int] = {}
        for conn in conns:
            _tag, worker_id, port = _expect(conn, "ready", 120.0, state)
            ports[worker_id] = port
        log.debug("fleet: all workers ready, ports=%s", ports)

        epoch = time.monotonic() + 0.25
        for conn in conns:
            conn.send(("start", ports, epoch))

        sever_due = (
            epoch + sever_at_s / time_scale if sever_at_s is not None else None
        )
        severed = False
        quiesce_deadline: float | None = None
        last_totals: tuple[int, int, int] | None = None
        while True:
            now = time.monotonic()
            if sever_due is not None and not severed and now >= sever_due:
                conns[sever_worker].send(("sever",))
                severed = True
            # Drain asynchronous worker messages (replay-done, fatal).
            for conn in conns:
                while conn.poll(0):
                    _recv(conn, state)
            # A late severance fires before quiescing.
            if state["replay_done"] and (sever_due is None or severed):
                if quiesce_deadline is None:
                    quiesce_deadline = time.monotonic() + QUIESCE_TIMEOUT_S * stretch
                for conn in conns:
                    conn.send(("stats?",))
                totals = [0, 0, 0]
                pending = 0
                for conn in conns:
                    message = _expect(conn, "stats", 30.0, state)
                    totals[0] += message[2]
                    totals[1] += message[3]
                    totals[2] += message[4]
                    pending += message[5]
                snapshot = tuple(totals)
                if (
                    pending == 0
                    and snapshot == last_totals
                    and totals[0] == totals[1] + totals[2]
                ):
                    break  # two stable, conserved snapshots: quiet
                last_totals = snapshot
                if time.monotonic() > quiesce_deadline:
                    break  # give up; residual reconciles to drops
            time.sleep(_POLL_S)

        log.debug("fleet: quiesced, collecting reports")
        for conn in conns:
            conn.send(("finish",))
        reports: list[WorkerReport] = []
        for conn in conns:
            message = _expect(conn, "report", 60.0 * stretch, state)
            reports.append(message[2])
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
        # Worker-id order keeps the merged stream deterministic over
        # shard assignment; update ids are already fleet-global.
        for report in sorted(reports, key=lambda r: r.worker):
            trace_recorder.absorb(report.spans)
            trace_recorder.metrics.absorb(
                report.metrics_snapshot, gauge_prefix=f"worker{report.worker}."
            )

    extras = {
        "workload": config.workload.name,
        "policy": config.policy,
        "time_scale": time_scale,
    }
    if sever_at_s is not None:
        extras["severed_worker"] = sever_worker
    return merge_reports(
        reports,
        tree_stats=setup.graph.stats(),
        effective_degree=setup.effective_degree,
        avg_comm_delay_ms=setup.avg_comm_delay_ms,
        wall_seconds=time.perf_counter() - wall_start,
        extras=extras,
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
