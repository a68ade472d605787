"""Failure resilience: fidelity vs. unplanned-failure intensity, per policy.

The paper's evaluation assumes a fault-free network: every repository
stays up and every overlay link stays connected for the whole run.
This experiment asks what fidelity costs when that assumption breaks --
for each intensity ``k``, a seeded :class:`~repro.engine.failures.
FailureSchedule` with ``k`` repository crash/recover pairs and ``k``
link down/up windows (one schedule per intensity, shared by every
policy so curves stay comparable) is injected mid-run, and the loss of
fidelity of the two exact dissemination policies is plotted against the
number of failure events.

The expected shape: fidelity degrades but does not collapse.  A crash
costs a failover burst (orphans re-homed to a live ancestor, charged as
reconfiguration) plus a staleness window for the crashed repository
itself; recovery costs one anti-entropy resync whose message count is
bounded by the number of subscribed items -- not by the update volume
missed -- so long outages stay cheap to repair.  The notes report the
drop, failover and resync economies at the highest intensity.
"""

from __future__ import annotations

from repro.engine.failures import failures_for_config
from repro.experiments import api
from repro.experiments.runner import ExperimentResult, Series, report

__all__ = ["SPEC", "POLICIES"]

POLICIES = ("distributed", "centralized")

#: Failure-pair counts per kind swept when the caller supplies none.
DEFAULT_INTENSITIES = (0, 1, 2, 4)


def _grid(ctx: api.ExperimentContext):
    base = ctx.base_config()
    intensities = ctx.params["intensities"]
    if intensities is None:
        intensities = DEFAULT_INTENSITIES
    schedules = {
        k: failures_for_config(
            base, crashes=k, partitions=k, seed=ctx.params["seed"]
        )
        for k in intensities
    }
    return base, intensities, schedules


def _plan(ctx: api.ExperimentContext):
    base, intensities, schedules = _grid(ctx)
    return tuple(
        base.with_(policy=policy, failures=schedules[k])
        for policy in POLICIES
        for k in intensities
    )


def _collect(ctx: api.ExperimentContext, results) -> ExperimentResult:
    _base, intensities, schedules = _grid(ctx)
    result = ExperimentResult(
        name="Failure resilience: fidelity under crashes and partitions",
        xlabel="failure events per run",
        ylabel="loss of fidelity (%)",
        xs=[float(len(schedules[k])) for k in intensities],
    )
    losses = [r.loss_of_fidelity for r in results]
    n = len(intensities)
    for i, policy in enumerate(POLICIES):
        result.series.append(Series(label=policy, ys=losses[i * n : (i + 1) * n]))

    worst = results[n - 1]  # distributed policy at the highest intensity
    counters = worst.counters
    result.notes["drops (distributed, max failures)"] = counters.drops
    result.notes["failover edge moves (distributed, max failures)"] = (
        counters.edges_added + counters.edges_removed
    )
    result.notes["resyncs (distributed, max failures)"] = counters.resyncs
    result.notes["resync checks (distributed, max failures)"] = (
        counters.resync_checks
    )
    result.notes["resync messages (distributed, max failures)"] = (
        counters.resync_messages
    )
    return result


SPEC = api.register(api.ExperimentSpec(
    name="failure_resilience",
    description=(
        "Both exact policies degrade gracefully under unplanned crashes "
        "and partitions; failover and anti-entropy resync cost bursts, "
        "not collapse."
    ),
    params=(
        api.ParamSpec("intensities", "ints", None,
                      "crash/partition pairs per kind "
                      f"(default {DEFAULT_INTENSITIES})"),
        api.ParamSpec("seed", "int", 7,
                      "seed of the synthetic failure schedules"),
    ),
    plan=_plan,
    collect=_collect,
    render=report,
))
