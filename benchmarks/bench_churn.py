"""Benchmark: mid-run churn reconfiguration overhead and determinism.

Two measurements over the tiny-preset workload:

- **reconfiguration overhead**: wall-clock of a churned run (3 joins,
  3 departures, 3 coherency changes) against the static run of the same
  config.  Each churn event makes one LeLA call on the reconfiguration
  core, diffs the new graph against what is wired and rewires the
  kernel; the assertion bounds that machinery to a
  small multiple of the static run so reconfiguration can never silently
  become the dominant cost.
- **parallel bit-identity**: a churned degree sweep through
  ``run_sweep(jobs=2)`` must merge bit-identically to the serial path --
  the PR-1 determinism contract extended to dynamic membership.

Conservation (``deliveries + drops == messages``) and the
reconfiguration counters are asserted on every run: they are the
accounting contract the churn subsystem adds.
"""

from __future__ import annotations

import time

from benchmarks.conftest import BENCH_OVERRIDES
from repro.engine import SCALE_PRESETS, run_simulation, run_sweep, schedule_for_config

CHURN_PER_KIND = 3


def _base_config():
    return SCALE_PRESETS["tiny"].with_(**BENCH_OVERRIDES)


def _churned_config():
    base = _base_config()
    schedule = schedule_for_config(
        base, joins=CHURN_PER_KIND, departs=CHURN_PER_KIND, updates=CHURN_PER_KIND
    )
    return base.with_(churn=schedule)


def bench_churn_reconfiguration_overhead(benchmark):
    static_config = _base_config()
    churned_config = _churned_config()

    start = time.perf_counter()
    run_simulation(static_config)
    static_s = time.perf_counter() - start

    start = time.perf_counter()
    churned = benchmark.pedantic(
        run_simulation, args=(churned_config,), rounds=1, iterations=1
    )
    churned_s = time.perf_counter() - start

    assert churned.counters.reconfigurations == 3 * CHURN_PER_KIND
    assert churned.counters.resubscriptions > 0
    assert (
        churned.counters.deliveries + churned.counters.drops
        == churned.counters.messages
    )
    # Same seed, same schedule: the churned run is fully deterministic.
    assert run_simulation(churned_config) == churned

    benchmark.extra_info["static_s"] = round(static_s, 3)
    benchmark.extra_info["churned_s"] = round(churned_s, 3)
    benchmark.extra_info["reconfiguration_cost"] = churned.reconfiguration_cost
    # Nine reconfigurations (each a graph diff + rewiring) must stay a
    # modest multiple of the static run; the +0.5 s floor absorbs timer
    # noise on loaded CI runners where static_s is tens of milliseconds.
    assert churned_s < 5.0 * static_s + 0.5, (
        f"churn overhead exploded: static {static_s:.2f}s vs "
        f"churned {churned_s:.2f}s"
    )


def bench_churn_parallel_bit_identity(benchmark):
    churned = _churned_config()
    configs = [churned.with_(offered_degree=d) for d in (2, 3, 4, 6)]

    serial = run_sweep(configs, jobs=1)

    parallel = benchmark.pedantic(
        run_sweep, args=(configs,), kwargs={"jobs": 2}, rounds=1, iterations=1
    )

    assert parallel == serial
    for result in parallel:
        assert result.counters.reconfigurations == 3 * CHURN_PER_KIND
        assert (
            result.counters.deliveries + result.counters.drops
            == result.counters.messages
        )
