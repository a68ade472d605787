"""Extension experiment: push vs. pull (fixed and adaptive TTR).

The paper's Section 8 names pull-based and adaptive mechanisms as the
natural comparison points for its push architecture.  This experiment
runs them on the identical workload:

- cooperative push (distributed policy, controlled cooperation),
- direct pull with fixed TTRs,
- direct pull with adaptive TTR.

Expected outcome: short fixed TTRs approach push fidelity but flood the
source with poll traffic; long TTRs are cheap but stale; adaptive TTR
sits between; cooperative push dominates the fidelity-per-message
trade-off because repositories share the dissemination work.

The push run rides the shared config-sweep plane; the pull variants are
their own deterministic points -- ``(config, TTR policy)`` fully
determines each -- so they fan out over ``jobs`` workers and are cached
content-addressed exactly like sweep points.
"""

from __future__ import annotations

from repro.engine.config import SimulationConfig
from repro.engine.pull import TtrConfig, run_pull_simulation
from repro.engine.sweep import recycled_setup
from repro.experiments import api
from repro.experiments.defaults import DEFAULT_TTRS
from repro.experiments.runner import ExperimentResult, Series

__all__ = ["SPEC"]


def _run_pull_point(point: tuple[SimulationConfig, TtrConfig]):
    """Worker entry: one pull simulation, deterministic in its inputs."""
    config, ttr = point
    return run_pull_simulation(recycled_setup(config), ttr)


def _variants(ctx: api.ExperimentContext) -> list[tuple[str, TtrConfig]]:
    variants = [
        (f"pull ttr={ttr:g}s", TtrConfig(mode="fixed", ttr_s=ttr))
        for ttr in ctx.params["ttrs_s"]
    ]
    variants.append(
        ("pull adaptive",
         TtrConfig(mode="adaptive", ttr_s=10.0, ttr_min_s=1.0, ttr_max_s=60.0))
    )
    return variants


def _config(ctx: api.ExperimentContext) -> SimulationConfig:
    return ctx.base_config().with_(
        t_percent=ctx.params["t_percent"],
        policy="distributed",
        controlled_cooperation=True,
    )


def _plan(ctx: api.ExperimentContext):
    return (_config(ctx),)


def _collect(ctx: api.ExperimentContext, results) -> ExperimentResult:
    config = _config(ctx)
    push = results[0]

    labels: list[str] = ["push (coop)"]
    losses: list[float] = [push.loss_of_fidelity]
    messages: list[float] = [float(push.messages)]

    variants = _variants(ctx)
    pulls = ctx.run(
        keys=[("pull", config, ttr) for _label, ttr in variants],
        points=[(config, ttr) for _label, ttr in variants],
        worker=_run_pull_point,
    )
    for (label, _ttr), result in zip(variants, pulls):
        labels.append(label)
        losses.append(result.loss_of_fidelity)
        messages.append(float(result.messages))

    return ExperimentResult(
        name="Extension: push vs. pull (fixed / adaptive TTR)",
        xlabel="system",
        ylabel="loss of fidelity (%) / messages",
        xs=list(range(len(labels))),
        series=[
            Series(label="loss %", ys=losses),
            Series(label="messages", ys=messages),
        ],
        notes={"systems": labels},
    )


def _render(result: ExperimentResult) -> str:
    lines = [f"== {result.name} ==",
             f"{'system':<16} {'loss %':>8} {'messages':>10}"]
    lines.append("-" * 38)
    for i, label in enumerate(result.notes["systems"]):
        loss = result.series_by_label("loss %").ys[i]
        msgs = result.series_by_label("messages").ys[i]
        lines.append(f"{label:<16} {loss:>8.2f} {msgs:>10.0f}")
    return "\n".join(lines)


SPEC = api.register(api.ExperimentSpec(
    name="pull_baseline",
    description=(
        "Cooperative push dominates the fidelity-per-message trade-off "
        "against fixed- and adaptive-TTR pull baselines."
    ),
    params=(
        api.ParamSpec("t_percent", "float", 80.0,
                      "coherency-stringency mix (T%)"),
        api.ParamSpec("ttrs_s", "floats", DEFAULT_TTRS,
                      "fixed TTRs to sweep (seconds)"),
    ),
    plan=_plan,
    collect=_collect,
    render=_render,
))
