"""Extension experiment: the push-pull threshold trade-off.

Sweeps the stringency boundary between the push plane and the pull
plane.  A threshold of 0+ sends everything to pull (cheap parents, poor
fidelity); a huge threshold is pure cooperative push (best fidelity,
per-dependent state everywhere).  The interesting region is the paper's
own stringent/lax boundary ($0.1): stringent subscriptions genuinely
need push, lax ones barely notice pull staleness.

Each threshold is one planned engine run: the push config with a
:class:`~repro.engine.config.PullConfig` at that threshold, whose lax
subscriptions poll with an adaptive 1-60 s TTR.  Polls and push forwards
share the source's queue.
"""

from __future__ import annotations

from repro.engine.config import PullConfig, SimulationConfig
from repro.experiments import api
from repro.experiments.defaults import DEFAULT_THRESHOLDS
from repro.experiments.runner import ExperimentResult, Series, report

__all__ = ["SPEC"]


def _config(ctx: api.ExperimentContext) -> SimulationConfig:
    return ctx.base_config().with_(
        t_percent=ctx.params["t_percent"],
        policy="distributed",
        controlled_cooperation=True,
    )


def _plan(ctx: api.ExperimentContext) -> tuple[SimulationConfig, ...]:
    config = _config(ctx)
    return tuple(
        config.with_(
            pull=PullConfig(
                ttr_s=10.0, ttr_min_s=1.0, ttr_max_s=60.0,
                threshold_c=threshold,
            )
        )
        for threshold in ctx.params["thresholds"]
    )


def _collect(ctx: api.ExperimentContext, results) -> ExperimentResult:
    thresholds = ctx.params["thresholds"]
    losses: list[float] = []
    messages: list[float] = []
    push_shares: list[float] = []
    for result in results:
        losses.append(result.loss_of_fidelity)
        messages.append(float(result.messages))
        push, pull = result.extras["push_pairs"], result.extras["pull_pairs"]
        push_shares.append(100.0 * push / (push + pull) if push + pull else 0.0)

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
