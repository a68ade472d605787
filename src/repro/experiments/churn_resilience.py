"""Churn resilience: fidelity vs. mid-run churn intensity, per policy.

The paper's evaluation is static: the repository set and every coherency
requirement are fixed before the first update flows.  This experiment
asks the production question Section 4 implies -- *what does fidelity
cost when the membership changes while updates are in flight?*  For each
churn intensity ``k`` a synthetic schedule with ``k`` late joins, ``k``
departures and ``k`` coherency changes (one seeded schedule, shared by
every policy so curves stay comparable) is executed mid-run, and the
loss of fidelity of the two exact dissemination policies is plotted
against the number of churn events.

The expected shape: both exact policies degrade gracefully -- each
reconfiguration costs a burst of resubscriptions (reported in the
notes) and a brief staleness window for rewired subtrees, but fidelity
does not collapse, because the algorithm is reapplied rather than left
to rot.
"""

from __future__ import annotations

from repro.engine.churn import schedule_for_config
from repro.experiments import api
from repro.experiments.defaults import default_intensities
from repro.experiments.runner import ExperimentResult, Series, report

__all__ = ["SPEC"]

POLICIES = ("distributed", "centralized")


def _grid(ctx: api.ExperimentContext):
    base = ctx.base_config()
    intensities = ctx.params["intensities"]
    if intensities is None:
        intensities = tuple(default_intensities(base.n_repositories))
    schedules = {
        k: schedule_for_config(base, joins=k, departs=k, updates=k)
        for k in intensities
    }
    return base, intensities, schedules


def _plan(ctx: api.ExperimentContext):
    base, intensities, schedules = _grid(ctx)
    return tuple(
        base.with_(policy=policy, churn=schedules[k])
        for policy in POLICIES
        for k in intensities
    )


def _collect(ctx: api.ExperimentContext, results) -> ExperimentResult:
    _base, intensities, schedules = _grid(ctx)
    result = ExperimentResult(
        name="Churn resilience: fidelity under mid-run membership dynamics",
        xlabel="churn events per run",
        ylabel="loss of fidelity (%)",
        xs=[float(len(schedules[k])) for k in intensities],
    )
    losses = [r.loss_of_fidelity for r in results]
    n = len(intensities)
    for i, policy in enumerate(POLICIES):
        result.series.append(Series(label=policy, ys=losses[i * n : (i + 1) * n]))

    worst = results[n - 1]  # distributed policy at the highest intensity
    result.notes["reconfiguration cost (distributed, max churn)"] = (
        worst.reconfiguration_cost
    )
    result.notes["reconfiguration drops (distributed, max churn)"] = (
        worst.counters.drops
    )
    result.notes["final members (distributed, max churn)"] = worst.extras.get(
        "final_members"
    )
    return result


SPEC = api.register(api.ExperimentSpec(
    name="churn_resilience",
    description=(
        "Both exact policies degrade gracefully under mid-run membership "
        "churn; reconfiguration costs bursts, not collapse."
    ),
    params=(
        api.ParamSpec("intensities", "ints", None,
                      "churn events per kind (default: derived from preset)"),
    ),
    plan=_plan,
    collect=_collect,
    render=report,
))
