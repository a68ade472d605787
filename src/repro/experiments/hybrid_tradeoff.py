"""Extension experiment: the push-pull threshold trade-off.

Sweeps the stringency boundary between the push plane and the pull
plane.  A threshold of 0+ sends everything to pull (cheap parents, poor
fidelity); a huge threshold is pure cooperative push (best fidelity,
per-dependent state everywhere).  The interesting region is the paper's
own stringent/lax boundary ($0.1): stringent subscriptions genuinely
need push, lax ones barely notice pull staleness.

Each threshold point is fully determined by ``(config, threshold)``, so
the sweep fans out over ``jobs`` workers and is cached content-addressed
exactly like plain sweep points.
"""

from __future__ import annotations

from repro.engine.config import SimulationConfig
from repro.engine.hybrid import run_hybrid_simulation
from repro.experiments import api
from repro.experiments.defaults import DEFAULT_THRESHOLDS
from repro.experiments.runner import ExperimentResult, Series, report

__all__ = ["SPEC"]


def _run_hybrid_point(point: tuple[SimulationConfig, float]):
    """Worker entry: one hybrid simulation, deterministic in its inputs."""
    config, threshold = point
    return run_hybrid_simulation(
        config, threshold_c=threshold, base=api.shared_setup(config)
    )


def _config(ctx: api.ExperimentContext) -> SimulationConfig:
    return ctx.base_config().with_(
        t_percent=ctx.params["t_percent"],
        policy="distributed",
        controlled_cooperation=True,
    )


def _plan(ctx: api.ExperimentContext):
    # The hybrid planes have their own driver; nothing rides the plain
    # config-sweep fan-out.
    return ()


def _collect(ctx: api.ExperimentContext, results) -> ExperimentResult:
    config = _config(ctx)
    thresholds = ctx.params["thresholds"]

    hybrids = api.cached_parallel_map(
        ctx,
        keys=[("hybrid", config, threshold) for threshold in thresholds],
        points=[(config, threshold) for threshold in thresholds],
        worker=_run_hybrid_point,
    )
    losses: list[float] = []
    messages: list[float] = []
    push_shares: list[float] = []
    for result in hybrids:
        losses.append(result.loss_of_fidelity)
        messages.append(float(result.messages))
        total = result.push_pairs + result.pull_pairs
        push_shares.append(100.0 * result.push_pairs / total if total else 0.0)

    out = ExperimentResult(
        name="Extension: push-pull hybrid threshold trade-off",
        xlabel="push threshold c ($)",
        ylabel="loss of fidelity (%) / traffic",
        xs=list(thresholds),
    )
    out.series.append(Series(label="loss %", ys=losses))
    out.series.append(Series(label="push share %", ys=push_shares))
    out.notes["messages along the sweep"] = [int(m) for m in messages]
    return out


SPEC = api.register(api.ExperimentSpec(
    name="hybrid_tradeoff",
    description=(
        "The push/pull stringency threshold trades fidelity against "
        "per-dependent push state; the paper's $0.1 boundary is the knee."
    ),
    params=(
        api.ParamSpec("thresholds", "floats", DEFAULT_THRESHOLDS,
                      "push thresholds c ($) to sweep"),
        api.ParamSpec("t_percent", "float", 50.0,
                      "coherency-stringency mix (T%)"),
    ),
    plan=_plan,
    collect=_collect,
    render=report,
))
