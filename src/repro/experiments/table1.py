"""Table 1: characteristics of the (synthetic) stock-price traces.

The paper's Table 1 lists six tickers with the min/max prices seen over
10 000 one-second polls.  We regenerate the table from the synthetic
presets and additionally report the realised change rate, which is the
trace property the dissemination algorithms actually feel.

The experiment plans no simulation configs -- its work is pure trace
statistics -- but it still rides the registry's cache plane, so a warm
``experiments run`` recalls the stats without regenerating any trace.
"""

from __future__ import annotations

from repro.experiments import api
from repro.sim.rng import RandomStreams
from repro.traces.library import PAPER_TICKERS, make_paper_trace
from repro.traces.stats import TraceStats, format_table1, summarize

__all__ = ["SPEC"]


def _compute_stats(point: tuple[int, int]) -> list[TraceStats]:
    """Worker entry: the six tickers' statistics for ``(n_samples, seed)``."""
    n_samples, seed = point
    streams = RandomStreams(seed)
    stats = []
    for i, spec in enumerate(PAPER_TICKERS):
        trace = make_paper_trace(spec, streams.spawn("table1", i), n_samples)
        stats.append(summarize(trace))
    return stats


def _plan(ctx: api.ExperimentContext):
    return ()


def _collect(ctx: api.ExperimentContext, results) -> list[TraceStats]:
    point = (ctx.params["n_samples"], ctx.params["seed"])
    [stats] = ctx.run(keys=[("table1", *point)], points=[point], worker=_compute_stats)
    return stats


def _render(stats: list[TraceStats]) -> str:
    out = [format_table1(stats), "", "Paper's bands for comparison:"]
    for spec in PAPER_TICKERS:
        out.append(f"  {spec.ticker:<6} min={spec.min_price:<8} max={spec.max_price}")
    return "\n".join(out)


SPEC = api.register(api.ExperimentSpec(
    name="table1",
    description=(
        "Trace calibration: the six Table 1 tickers, their price bands "
        "and realised change statistics."
    ),
    params=(
        api.ParamSpec("n_samples", "int", 10_000, "polled samples per trace"),
        api.ParamSpec("seed", "int", 20020812, "trace-generation seed"),
    ),
    plan=_plan,
    collect=_collect,
    render=_render,
))
