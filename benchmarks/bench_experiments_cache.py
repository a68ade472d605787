"""Benchmark: the content-addressed experiment cache, warm vs. cold.

Runs the experiment registry (the ``experiments run --preset tiny``
workload, :data:`UNCACHED` aside) through the unified execution plane
twice against one cache directory:

- **cold**: every distinct sweep point (pull and hybrid variants
  included) is simulated and stored;
- **warm** (under the benchmark timer): every point must be answered
  from the cache -- the acceptance bar is *zero new simulations* -- and
  every payload must be bit-identical to the cold run's.

Also pins the cross-experiment deduplication ratio: the union of all
plans must contain shared points (figures reuse each other's configs),
so ``planned > distinct`` whenever more than one experiment runs.

Recorded extra-info: cold/warm wall-clock, the speedup factor, the
dedup ratio and the point counts -- CI uploads the JSON for trending.
"""

from __future__ import annotations

import time

from repro.experiments import api
from repro.experiments.cache import ResultCache

#: Keep CI latency bounded while still exercising every registered
#: experiment, table1's statistics and the replay-corpus path.
TINY_OVERRIDES = dict(n_items=6, trace_samples=400)

#: Warm lookups are pure disk reads; even against a cold OS page cache
#: they must beat simulation by a wide margin.
MIN_WARM_SPEEDUP = 5.0

#: Left out: ``live_crosscheck``'s collect runs every live plane
#: uncached on purpose (a cache key carries no code fingerprint), about
#: ten seconds the same warm or cold, which measures the live planes, not
#: the cache.  Its tier-1 test runs it.
UNCACHED = {"live_crosscheck"}


def bench_experiments_cache_warm_vs_cold(benchmark, tmp_path):
    names = [name for name in api.available_experiments() if name not in UNCACHED]
    cache = ResultCache(tmp_path / "cache")

    start = time.perf_counter()
    cold = api.run_experiments(
        names,
        preset="tiny",
        cache=cache,
        artifacts_dir=tmp_path / "artifacts",
        overrides=TINY_OVERRIDES,
    )
    cold_s = time.perf_counter() - start

    assert cold.stats.total_simulated > 0
    assert len(cold.payloads) == len(names)

    # Cross-experiment dedup: shared (preset, T, policy) points are
    # simulated once across figures.
    assert cold.stats.deduplicated > 0
    dedup_ratio = cold.stats.planned / cold.stats.distinct

    start = time.perf_counter()
    warm = benchmark.pedantic(
        api.run_experiments,
        args=(names,),
        kwargs=dict(
            preset="tiny",
            cache=cache,
            artifacts_dir=tmp_path / "artifacts",
            overrides=TINY_OVERRIDES,
        ),
        rounds=1,
        iterations=1,
    )
    warm_s = time.perf_counter() - start

    # The acceptance bar: a warm rerun performs zero new simulations...
    assert warm.stats.total_simulated == 0
    assert warm.stats.cache_hits == warm.stats.distinct
    # ...and reproduces every payload bit for bit.
    assert warm.payloads == cold.payloads
    assert warm.texts == cold.texts

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm rerun only {speedup:.1f}x faster than cold "
        f"({warm_s:.2f}s vs {cold_s:.2f}s)"
    )

    benchmark.extra_info["cold_s"] = round(cold_s, 3)
    benchmark.extra_info["warm_s"] = round(warm_s, 3)
    benchmark.extra_info["warm_speedup"] = round(speedup, 1)
    benchmark.extra_info["dedup_ratio"] = round(dedup_ratio, 4)
    benchmark.extra_info["planned_points"] = cold.stats.planned
    benchmark.extra_info["distinct_points"] = cold.stats.distinct
    benchmark.extra_info["simulated_cold"] = cold.stats.total_simulated
    benchmark.extra_info["simulated_warm"] = warm.stats.total_simulated


def bench_experiments_cache_cross_experiment_sharing(benchmark, tmp_path):
    """A config simulated for one figure is a cache hit for the next.

    figure3 at T=0 with the distributed policy plans exactly figure8's
    filtered arm, so running figure3 first must leave figure8 needing
    only its flooding arm.
    """
    cache = ResultCache(tmp_path / "cache")
    degrees = (1, 2, 4, 8, 20)
    api.run_experiments(
        ["figure3"],
        preset="tiny",
        cache=cache,
        params_by_name={"figure3": dict(t_values=(0.0,), degrees=degrees,
                                        policy="distributed")},
        overrides=TINY_OVERRIDES,
    )

    report = benchmark.pedantic(
        api.run_experiments,
        args=(["figure8"],),
        kwargs=dict(
            preset="tiny",
            cache=cache,
            params_by_name={"figure8": dict(degrees=degrees)},
            overrides=TINY_OVERRIDES,
        ),
        rounds=1,
        iterations=1,
    )
    # The filtered arm is answered from figure3's entries; only the
    # flooding arm simulates.
    assert report.stats.planned == 2 * len(degrees)
    assert report.stats.cache_hits == len(degrees)
    assert report.stats.simulated == len(degrees)
