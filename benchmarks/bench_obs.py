"""Benchmark: observability overhead pins.

Two guarantees live here:

1. **Disabled hooks are nearly free.** With no observer attached the
   only cost the trace layer adds to the hot loop is an ``is not None``
   branch per hook site.  The pin measures that branch cost directly (a
   tight microbenchmark), multiplies it by the number of hook sites the
   run actually executes per work unit (counted by an observer that does
   nothing else, over ``events_processed``), and asserts the estimate
   stays under ``MAX_DORMANT_NS_PER_UNIT`` on the Table 1-calibrated
   default workload.
2. **Enabled tracing has a bounded cost per span.** Attaching a
   ``TraceRecorder`` -- which materialises a span per
   source/check/forward/drop/deliver decision plus edge-latency
   histograms -- must cost at most ``MAX_US_PER_SPAN`` of extra wall
   time per span recorded, and the traced result must remain
   bit-identical.

Both pins are on an *absolute* cost, not on a ratio to the untraced
run: a ratio moves with its denominator, so it would fail every time the
engine itself got faster.

Wall times are the best of ``ROUNDS`` rounds on each side, which sheds
the first round's cold caches and the scheduler's noise.  CI uploads
the pytest-benchmark JSON (with the measured figures in ``extra_info``)
as a build artifact, so overhead drift is visible in history before it
ever trips the assertion.
"""

import time

from benchmarks.conftest import BENCH_OVERRIDES
from repro.engine.config import SCALE_PRESETS
from repro.engine.simulation import run_simulation
from repro.obs.trace import TraceRecorder

#: Table 1-calibrated default workload at benchmark scale: loaded
#: enough (12 items, 25 ms computation, 500 samples) that the per-check
#: hot loop dominates the measurement.
OBS_CONFIG = SCALE_PRESETS["tiny"].with_(**BENCH_OVERRIDES)

ROUNDS = 3

#: Extra wall time a recorded span may cost.
MAX_US_PER_SPAN = 5.0

#: Wall time the dormant guards may cost per work unit (a source update
#: or a delivery).  Measured on a 2-core x86 machine: 2.40 guards per
#: unit at 27-29 ns per guard, 64-69 ns.  One more guard per dependent
#: (1.40 dependents per unit) reads 104-106 ns and fails.
MAX_DORMANT_NS_PER_UNIT = 90.0


class _SiteCounter:
    """An observer that counts the guards that let it in.

    The engine's loop tests ``observer is not None`` once per work unit
    (a source update's ``on_source``, a delivery's ``on_deliver``, or the
    ``on_drop`` of a message that reached a crashed or departed
    repository), once per edge-group step (whose ``on_check`` calls, one
    per dependent, and ``on_forward`` calls ride on the same test) and
    once more in a step that dropped at the sender (one ``on_drop`` per
    lost copy) -- never per dependent.  Counting every ``on_check`` and
    ``on_drop`` call therefore overcounts the guards, which only makes
    the pin stricter.
    """

    def __init__(self) -> None:
        self.sites = 0

    def _site(self, *_span) -> None:
        self.sites += 1

    on_source = on_deliver = on_drop = on_check = _site

    def on_forward(self, *_span) -> None:
        pass


def _hook_sites() -> tuple[int, int]:
    """How many observer guards one run of ``OBS_CONFIG`` evaluates, and
    over how many work units (``events_processed``)."""
    counter = _SiteCounter()
    result = run_simulation(OBS_CONFIG, observer=counter)
    return counter.sites, result.events_processed


def bench_obs_disabled_hook_overhead(benchmark):
    """Estimated cost of the dormant hooks: < 90 ns per work unit."""
    benchmark.pedantic(run_simulation, args=(OBS_CONFIG,), rounds=ROUNDS, iterations=1)
    untraced_s = benchmark.stats.stats.min

    # Per-branch cost of `if observer is not None`, measured in a tight
    # loop (min over batches to shed scheduler noise).
    observer = None
    n = 100_000
    per_branch_s = min(
        _time_guard_loop(observer, n) / n for _ in range(5)
    )

    sites, units = _hook_sites()
    ns_per_unit = sites / units * per_branch_s * 1e9

    benchmark.extra_info["hook_sites"] = sites
    benchmark.extra_info["work_units"] = units
    benchmark.extra_info["guards_per_unit"] = round(sites / units, 3)
    benchmark.extra_info["per_branch_ns"] = round(per_branch_s * 1e9, 3)
    benchmark.extra_info["dormant_ns_per_unit"] = round(ns_per_unit, 2)
    benchmark.extra_info["untraced_s"] = round(untraced_s, 3)
    benchmark.extra_info["disabled_overhead_pct"] = round(
        100.0 * sites * per_branch_s / untraced_s, 4
    )
    assert ns_per_unit < MAX_DORMANT_NS_PER_UNIT, (
        f"dormant observer hooks cost {ns_per_unit:.1f} ns per work unit "
        f"({sites / units:.2f} guards x {per_branch_s * 1e9:.1f} ns)"
    )


def _time_guard_loop(observer, n: int) -> float:
    start = time.perf_counter()
    hits = 0
    for _ in range(n):
        if observer is not None:
            hits += 1
    elapsed = time.perf_counter() - start
    assert hits == 0
    return elapsed


def bench_obs_enabled_tracing_overhead(benchmark):
    """Recording a span costs at most 5 us -- and stays bit-identical."""
    untraced_s = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        untraced = run_simulation(OBS_CONFIG)
        untraced_s = min(untraced_s, time.perf_counter() - start)

    recorders = []

    def fresh_recorder():
        recorders.append(TraceRecorder(policy=OBS_CONFIG.policy))
        return (OBS_CONFIG,), {"observer": recorders[-1]}

    traced = benchmark.pedantic(
        run_simulation, setup=fresh_recorder, rounds=ROUNDS, iterations=1
    )
    traced_s = benchmark.stats.stats.min
    spans = len(recorders[-1])

    assert traced == untraced  # recording must never perturb the result
    us_per_span = (traced_s - untraced_s) / spans * 1e6
    benchmark.extra_info["untraced_s"] = round(untraced_s, 3)
    benchmark.extra_info["traced_s"] = round(traced_s, 3)
    benchmark.extra_info["traced_over_untraced"] = round(traced_s / untraced_s, 2)
    benchmark.extra_info["spans"] = spans
    benchmark.extra_info["us_per_span"] = round(us_per_span, 3)
    assert us_per_span <= MAX_US_PER_SPAN, (
        f"enabled tracing costs {us_per_span:.2f} us per span "
        f"({traced_s:.3f}s vs {untraced_s:.3f}s for {spans} spans)"
    )
