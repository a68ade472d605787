"""Ablations beyond the paper's figures.

1. **Eq. (2)'s interest fraction f** (the paper's footnote study): for
   f >= 50 the resulting fidelity should vary by only ~1%; small f
   over-inflates the degree and re-enters the U-curve's rising arm.
2. **Missed-update guard ablation**: the distributed policy with and
   without Eq. (7), quantifying what the guard buys end to end (the
   paper argues its necessity analytically via Figure 4).

Both ablations plan through one grid, so the registry runner executes
(and caches) them as a single sweep.
"""

from __future__ import annotations

from repro.experiments import api
from repro.experiments.defaults import DEFAULT_F_VALUES
from repro.experiments.figures import panels
from repro.experiments.runner import ExperimentResult, Series

__all__ = ["SPEC"]


def _plan_f(ctx: api.ExperimentContext):
    base = ctx.base_config().with_(t_percent=ctx.params["t_percent"])
    return tuple(
        base.with_(
            interest_fraction_f=f,
            offered_degree=base.n_repositories,
            controlled_cooperation=True,
        )
        for f in ctx.params["f_values"]
    )


def _collect_f(ctx: api.ExperimentContext, results) -> ExperimentResult:
    f_values = ctx.params["f_values"]
    t_percent = ctx.params["t_percent"]
    losses = [r.loss_of_fidelity for r in results]
    result = ExperimentResult(
        name="Ablation: sensitivity to Eq. (2)'s interest fraction f",
        xlabel="f",
        ylabel="loss of fidelity (%)",
        xs=list(f_values),
    )
    result.series.append(Series(label=f"T={t_percent:.0f}", ys=losses))
    result.series.append(
        Series(label="Eq.(2) degree",
               ys=[float(r.effective_degree) for r in results])
    )
    losses_f50_up = [l for f, l in zip(f_values, losses) if f >= 50.0]
    if losses_f50_up:
        result.notes["max variation for f>=50 (paper: ~1%)"] = round(
            max(losses_f50_up) - min(losses_f50_up), 3
        )
    return result


def _plan_eq7(ctx: api.ExperimentContext):
    base = ctx.base_config().with_(
        t_percent=ctx.params["t_percent"], controlled_cooperation=True
    )
    return (base.with_(policy="distributed"), base.with_(policy="eq3_only"))


def _collect_eq7(ctx: api.ExperimentContext, results) -> ExperimentResult:
    t_percent = ctx.params["t_percent"]
    losses = [r.loss_of_fidelity for r in results]
    result = ExperimentResult(
        name="Ablation: the Eq. (7) missed-update guard",
        xlabel="policy (0=distributed, 1=eq3_only)",
        ylabel="loss of fidelity (%)",
        xs=[0.0, 1.0],
    )
    result.series.append(Series(label=f"T={t_percent:.0f}", ys=losses))
    result.notes["messages distributed"] = results[0].messages
    result.notes["messages eq3_only"] = results[1].messages
    return result


SPEC = api.register(api.ExperimentSpec(
    name="sensitivity",
    description=(
        "Ablations: fidelity is insensitive to Eq. (2)'s f above ~50, "
        "and the Eq. (7) missed-update guard pays for itself."
    ),
    params=(
        api.ParamSpec("f_values", "floats", DEFAULT_F_VALUES,
                      "interest fractions f to sweep"),
        api.ParamSpec("t_percent", "float", 80.0,
                      "coherency-stringency mix (T%)"),
    ),
    **panels((_plan_f, _collect_f), (_plan_eq7, _collect_eq7)),
))
