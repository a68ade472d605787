"""Table 1: characteristics of the (synthetic) stock-price traces.

The paper's Table 1 lists six tickers with the min/max prices seen over
10 000 one-second polls.  We regenerate the table from the synthetic
presets and additionally report the realised change rate, which is the
trace property the dissemination algorithms actually feel.

The experiment plans no simulation configs: its work is pure trace
statistics, which ``collect`` computes on every run (a tenth of a
second at the default 10 000 samples).
"""

from __future__ import annotations

from repro.experiments import api
from repro.sim.rng import RandomStreams
from repro.traces.library import PAPER_TICKERS, make_paper_trace
from repro.traces.stats import TraceStats, format_table1, summarize

__all__ = ["SPEC"]


def _plan(ctx: api.ExperimentContext):
    return ()


def _collect(ctx: api.ExperimentContext, results) -> list[TraceStats]:
    """The six tickers' statistics for the context's samples and seed."""
    streams, n_samples = RandomStreams(ctx.params["seed"]), ctx.params["n_samples"]
    return [
        summarize(make_paper_trace(spec, streams.spawn("table1", i), n_samples))
        for i, spec in enumerate(PAPER_TICKERS)
    ]


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
