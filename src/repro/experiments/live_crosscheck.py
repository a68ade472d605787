"""Cross-validate the simulator against the live network.

The paper's credibility rests on a *real implementation*; ours rests on
the simulator and the live network (:mod:`repro.live`) being two
executions of the same algorithms.  This experiment runs both planes on
identical configs -- the simulation through the shared cached sweep
plane, the live network on the deterministic in-process transport --
and asserts they agree:

- **fidelity**: system loss of fidelity matches within
  ``fidelity_tol`` percentage points per policy (the two planes share
  the coherency filter, the ``d3g``, the delays and the queueing
  semantics, so the expected delta is exactly zero; the tolerance
  absorbs nothing but genuine regressions);
- **messages**: repository-plane message counts match within
  ``message_tol`` percent;
- **conservation**: on the live wire, ``deliveries + drops == sends``.

A disagreement raises -- a failed cross-check is a correctness bug in
one of the planes, not a data point.

Failure leg
-----------

A second leg repeats the comparison under an injected
:class:`~repro.engine.failures.FailureSchedule` (repository crashes,
link partitions) plus seeded message loss, per policy, again on the
in-process transport -- and then once more over real TCP sockets.  The
TCP half runs on a *fixed* small grid rather than the preset: its wall
budget is the trace span divided by ``tcp_time_scale``, and a small
grid keeps that to a few seconds at a gentle pace.  TCP nodes process
every frame at its logical arrival stamp (see :mod:`repro.live.wire`),
so the fidelity gap does not grow with the pace; what the leg checks is
that framing, sockets, severed connections and the drop economy leave
the run where the simulator put it.  The TCP leg asserts exact wire
conservation (``sent == delivered + dropped``) and fidelity agreement
within ``fidelity_tol``; it degrades gracefully (recorded as skipped)
where localhost sockets are unavailable, unless ``tcp=on`` forces it.

Adaptive leg
------------

A third leg repeats the comparison with an
:class:`~repro.engine.adaptive.AdaptivePolicy` active on a fixed
drifting grid (``ADAPTIVE_BASE``, flash-crowd traffic): the engine's
drift-triggered re-optimization must fire on both planes and still
leave them *bit-identical* -- unlike the plain legs' tolerance checks,
this one asserts ``delta == 0``, full :class:`CostCounters` equality
(reconfiguration charges included) and equal, non-zero rewire counts.
The in-process transport shares the simulator's kernel and counters, so
any disagreement means the live rewiring path diverged from the
engine's ``_apply_diff``.
"""

from __future__ import annotations

from repro.engine.config import SimulationConfig
from repro.errors import SimulationError
from repro.experiments import api
from repro.workloads import FlashCrowdWorkload

__all__ = ["SPEC", "POLICIES", "FAILURE_BASE", "ADAPTIVE_BASE"]

#: The two exact policies are the cross-check's subjects; flooding and
#: eq3_only are diagnostic baselines, available via the ``policies``
#: parameter.
POLICIES = ("distributed", "centralized")

#: Fixed operating point of the TCP failure leg (see module docstring
#: for why it does not scale with the preset).
FAILURE_BASE = SimulationConfig(
    n_repositories=5,
    n_routers=15,
    n_items=2,
    trace_samples=80,
)

#: Fixed operating point of the adaptive leg: flash-crowd drift on a
#: small grid, sized so the default policy applies several rewires per
#: run under both exact dissemination policies (verified: 4 rewires
#: each) while the whole leg stays sub-second.
ADAPTIVE_BASE = SimulationConfig(
    n_repositories=12,
    n_routers=36,
    n_items=3,
    trace_samples=300,
    seed=3913,
    workload=FlashCrowdWorkload(),
)


def _localhost_socket_reason() -> str | None:
    """Why TCP cannot run here, or ``None`` when sockets work."""
    import socket

    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            probe.bind(("127.0.0.1", 0))
        finally:
            probe.close()
    except OSError as exc:  # pragma: no cover - sandboxed environments
        return f"cannot bind localhost sockets here: {exc}"
    return None


def _policies(ctx: api.ExperimentContext) -> tuple[str, ...]:
    return tuple(p for p in ctx.params["policies"].split(",") if p.strip())


def _failure_config(ctx: api.ExperimentContext, policy: str) -> SimulationConfig:
    from repro.engine.failures import failures_for_config

    base = FAILURE_BASE.with_(
        policy=policy,
        message_loss_probability=ctx.params["failure_loss"],
    )
    return base.with_(failures=failures_for_config(
        base,
        crashes=ctx.params["failure_crashes"],
        partitions=ctx.params["failure_partitions"],
        seed=ctx.params["failure_seed"],
    ))


def _adaptive_config(ctx: api.ExperimentContext, policy: str) -> SimulationConfig:
    from repro.engine.adaptive import AdaptivePolicy

    return ADAPTIVE_BASE.with_(
        policy=policy,
        adaptive=AdaptivePolicy(
            window=ctx.params["adaptive_window"],
            threshold=ctx.params["adaptive_threshold"],
            max_rewires=ctx.params["adaptive_max_rewires"],
        ),
    )


def _plan(ctx: api.ExperimentContext):
    base = ctx.base_config()
    plain = tuple(base.with_(policy=policy) for policy in _policies(ctx))
    failure = tuple(_failure_config(ctx, policy) for policy in _policies(ctx))
    adaptive = tuple(_adaptive_config(ctx, policy) for policy in _policies(ctx))
    return plain + failure + adaptive


def _check_pair(tag: str, sim, live, fidelity_tol: float, message_tol: float) -> dict:
    """Compare one sim result against one live run; raise on drift."""
    if not live.conserved:
        raise SimulationError(
            f"live_crosscheck[{tag}]: message conservation violated: "
            f"sent={live.sent} delivered={live.delivered} "
            f"dropped={live.dropped}"
        )
    delta_loss = abs(sim.loss_of_fidelity - live.loss_of_fidelity)
    if delta_loss > fidelity_tol:
        raise SimulationError(
            f"live_crosscheck[{tag}]: fidelity disagrees by "
            f"{delta_loss:.4f} pp (sim {sim.loss_of_fidelity:.4f}, "
            f"live {live.loss_of_fidelity:.4f}; tolerance {fidelity_tol})"
        )
    message_delta_pct = (
        100.0 * abs(sim.messages - live.messages) / sim.messages
        if sim.messages
        else 0.0
    )
    if message_delta_pct > message_tol:
        raise SimulationError(
            f"live_crosscheck[{tag}]: message counts disagree by "
            f"{message_delta_pct:.2f}% (sim {sim.messages}, "
            f"live {live.messages}; tolerance {message_tol}%)"
        )
    return {
        "sim_loss": sim.loss_of_fidelity,
        "live_loss": live.loss_of_fidelity,
        "delta_loss_pp": delta_loss,
        "sim_messages": sim.messages,
        "live_messages": live.messages,
        "message_delta_pct": message_delta_pct,
        "live_sent": live.sent,
        "live_delivered": live.delivered,
        "live_dropped": live.dropped,
        "conserved": live.conserved,
    }


def _collect(ctx: api.ExperimentContext, results) -> dict:
    from repro.live.harness import run_live

    fidelity_tol = ctx.params["fidelity_tol"]
    message_tol = ctx.params["message_tol"]
    base = ctx.base_config()
    policies = _policies(ctx)
    payload: dict = {
        "preset": ctx.preset,
        "fidelity_tol_pp": fidelity_tol,
        "message_tol_pct": message_tol,
        "policies": {},
        "failure_policies": {},
        "adaptive_policies": {},
    }
    plain_sims = results[: len(policies)]
    failure_sims = results[len(policies) : 2 * len(policies)]
    adaptive_sims = results[2 * len(policies):]
    for policy, sim in zip(policies, plain_sims):
        config = base.with_(policy=policy)
        # The live half is deliberately NEVER cached: the experiment
        # exists to detect drift between today's code and the (possibly
        # cached) sim results, and a cache key carries no code
        # fingerprint -- a cached live answer would let a regression in
        # the shared filter report agreement forever.  The run is
        # sub-second at cross-check scale and bit-deterministic, so
        # recomputing keeps warm-rerun payloads byte-identical too.
        live = run_live(config, "inprocess")
        payload["policies"][policy] = _check_pair(
            policy, sim, live, fidelity_tol, message_tol
        )

    # --- failure leg: same comparison under crashes + partitions + loss.
    payload["failures"] = {
        "crashes": ctx.params["failure_crashes"],
        "partitions": ctx.params["failure_partitions"],
        "loss_probability": ctx.params["failure_loss"],
        "seed": ctx.params["failure_seed"],
    }
    for policy, sim in zip(policies, failure_sims):
        config = _failure_config(ctx, policy)
        live = run_live(config, "inprocess")
        row = _check_pair(
            f"failures/{policy}", sim, live, fidelity_tol, message_tol
        )
        row["sim_drops"] = sim.counters.drops
        row["live_drops"] = live.counters.drops
        payload["failure_policies"][policy] = row

    # --- adaptive leg: drift-triggered rewiring must leave the planes
    # bit-identical.  Zero tolerances on purpose: the in-process
    # transport shares the simulator's kernel, counters and controller
    # decisions, so *any* gap means the live rewiring path diverged.
    payload["adaptive"] = {
        "window": ctx.params["adaptive_window"],
        "threshold": ctx.params["adaptive_threshold"],
        "max_rewires": ctx.params["adaptive_max_rewires"],
    }
    for policy, sim in zip(policies, adaptive_sims):
        config = _adaptive_config(ctx, policy)
        live = run_live(config, "inprocess")
        row = _check_pair(
            f"adaptive/{policy}", sim, live, fidelity_tol=0.0, message_tol=0.0
        )
        if sim.counters != live.counters:
            raise SimulationError(
                f"live_crosscheck[adaptive/{policy}]: cost counters "
                f"diverged under adaptation: sim={sim.counters} "
                f"live={live.counters}"
            )
        sim_rewires = sim.extras.get("adaptive_rewires", 0)
        live_rewires = live.extras.get("adaptive_rewires", 0)
        if sim_rewires != live_rewires or sim_rewires < 1:
            raise SimulationError(
                f"live_crosscheck[adaptive/{policy}]: expected matching, "
                f"non-zero rewire counts, got sim={sim_rewires} "
                f"live={live_rewires}"
            )
        row["rewires"] = sim_rewires
        row["ticks"] = sim.extras.get("adaptive_ticks", 0)
        row["resubscriptions"] = sim.counters.resubscriptions
        payload["adaptive_policies"][policy] = row

    # --- TCP failure leg: one policy over real sockets, end to end.
    tcp_mode = ctx.params["tcp"]
    if tcp_mode not in ("auto", "on", "off"):
        raise SimulationError(
            f"live_crosscheck: tcp must be auto/on/off, got {tcp_mode!r}"
        )
    reason = None if tcp_mode == "on" else _localhost_socket_reason()
    if tcp_mode == "off":
        payload["tcp"] = {"ran": False, "reason": "disabled (tcp=off)"}
    elif tcp_mode == "auto" and reason is not None:
        payload["tcp"] = {"ran": False, "reason": reason}
    else:
        policy = "distributed" if "distributed" in policies else policies[0]
        sim = failure_sims[policies.index(policy)]
        config = _failure_config(ctx, policy)
        live = run_live(config, "tcp", time_scale=ctx.params["tcp_time_scale"])
        row = _check_pair(
            f"failures/tcp/{policy}", sim, live, fidelity_tol, message_tol
        )
        row["ran"] = True
        row["policy"] = policy
        row["time_scale"] = ctx.params["tcp_time_scale"]
        row["wall_seconds"] = live.wall_seconds
        row["heartbeats"] = live.extras.get("heartbeats", 0)
        row["reconnects"] = live.extras.get("reconnects", 0)
        payload["tcp"] = row
    payload["agreement"] = True
    return payload


def _render(payload: dict) -> str:
    lines = [
        "Live cross-check: simulator vs in-process live network "
        f"(preset={payload['preset']})",
        f"tolerances: fidelity {payload['fidelity_tol_pp']} pp, "
        f"messages {payload['message_tol_pct']}%",
        "",
        f"{'policy':<14} {'sim loss%':>10} {'live loss%':>10} "
        f"{'Δpp':>8} {'sim msgs':>9} {'live msgs':>9} {'conserved':>9}",
    ]
    for policy, row in payload["policies"].items():
        lines.append(
            f"{policy:<14} {row['sim_loss']:>10.4f} {row['live_loss']:>10.4f} "
            f"{row['delta_loss_pp']:>8.4f} {row['sim_messages']:>9d} "
            f"{row['live_messages']:>9d} {str(row['conserved']):>9}"
        )
    failures = payload.get("failures")
    if failures:
        lines.append("")
        lines.append(
            f"failure leg: {failures['crashes']} crash(es), "
            f"{failures['partitions']} partition(s), "
            f"loss={failures['loss_probability']}, seed={failures['seed']}"
        )
        for policy, row in payload.get("failure_policies", {}).items():
            lines.append(
                f"{policy:<14} {row['sim_loss']:>10.4f} "
                f"{row['live_loss']:>10.4f} {row['delta_loss_pp']:>8.4f} "
                f"{row['sim_messages']:>9d} {row['live_messages']:>9d} "
                f"{str(row['conserved']):>9}"
            )
        tcp = payload.get("tcp", {})
        if tcp.get("ran"):
            lines.append(
                f"tcp[{tcp['policy']}]: Δ={tcp['delta_loss_pp']:.4f} pp, "
                f"wire {tcp['live_sent']}={tcp['live_delivered']}"
                f"+{tcp['live_dropped']} conserved={tcp['conserved']}, "
                f"wall={tcp['wall_seconds']:.1f}s"
            )
        else:
            lines.append(f"tcp: skipped -- {tcp.get('reason', 'unknown')}")
    adaptive = payload.get("adaptive")
    if adaptive:
        lines.append("")
        lines.append(
            f"adaptive leg (bit-exact): window={adaptive['window']:g}, "
            f"threshold={adaptive['threshold']:g}, "
            f"max_rewires={adaptive['max_rewires']}"
        )
        for policy, row in payload.get("adaptive_policies", {}).items():
            lines.append(
                f"{policy:<14} {row['sim_loss']:>10.4f} "
                f"{row['live_loss']:>10.4f} {row['delta_loss_pp']:>8.4f} "
                f"{row['sim_messages']:>9d} {row['live_messages']:>9d} "
                f"rewires={row['rewires']} resubs={row['resubscriptions']}"
            )
    lines.append("")
    lines.append("agreement: within tolerance on every policy")
    return "\n".join(lines)


SPEC = api.register(api.ExperimentSpec(
    name="live_crosscheck",
    description=(
        "The live network and the simulator agree on fidelity and message "
        "counts for identical configs (shared-filter cross-validation)."
    ),
    params=(
        api.ParamSpec("policies", "str", ",".join(POLICIES),
                      "comma-separated policies to cross-check"),
        api.ParamSpec("fidelity_tol", "float", 0.5,
                      "max |sim - live| system loss disagreement, "
                      "percentage points"),
        api.ParamSpec("message_tol", "float", 2.0,
                      "max repository-plane message-count disagreement, %"),
        api.ParamSpec("failure_crashes", "int", 1,
                      "repository crash/recover pairs in the failure leg"),
        api.ParamSpec("failure_partitions", "int", 1,
                      "link down/up windows in the failure leg"),
        api.ParamSpec("failure_loss", "float", 0.01,
                      "seeded Bernoulli message-loss probability in the "
                      "failure leg"),
        api.ParamSpec("failure_seed", "int", 3,
                      "seed of the synthetic failure schedule"),
        api.ParamSpec("tcp", "str", "auto",
                      "TCP failure leg: auto (skip without sockets), "
                      "on (require), off (never)"),
        api.ParamSpec("tcp_time_scale", "float", 8.0,
                      "sim-seconds per wall-second for the TCP leg; the "
                      "wall time scales inversely with it"),
        api.ParamSpec("adaptive_window", "float", 30.0,
                      "drift window (simulated seconds) of the adaptive "
                      "leg's policy"),
        api.ParamSpec("adaptive_threshold", "float", 0.75,
                      "drift threshold of the adaptive leg's policy"),
        api.ParamSpec("adaptive_max_rewires", "int", 4,
                      "rewire cap of the adaptive leg's policy"),
    ),
    plan=_plan,
    collect=_collect,
    render=_render,
))
