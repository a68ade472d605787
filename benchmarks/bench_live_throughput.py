"""Benchmark: live in-process transport throughput and sim overhead.

Two measurements over the tiny-preset workload:

- **deliveries per second** of the deterministic in-process transport:
  the live network runs the exact same filters and queueing semantics
  as the engine, so its virtual-time driver should move updates at a
  rate comparable to the simulation kernel.  The floor is deliberately
  conservative (a tenth of typically measured rates) -- it exists to
  catch the transport silently becoming quadratic (per-message replays,
  per-delivery graph scans), not to pin wall-clock numbers that vary
  across runners.
- **cross-plane overhead**: one live run against one simulation run of
  the same config.  The live plane re-derives the setup and drives the
  sans-io nodes, so a small multiple is expected; an order of magnitude
  means a regression.

Bit-determinism and message conservation are asserted on every run:
they are the contract the ``live_crosscheck`` experiment rests on.
"""

from __future__ import annotations

import time

from benchmarks.conftest import BENCH_OVERRIDES
from repro.engine import SCALE_PRESETS, run_simulation
from repro.live import run_live

#: Conservative floor, a tenth of the measured rate: ~115k deliveries/s
#: for this workload on a 2-core sandbox (~60k before nodes emitted the
#: wire row itself and the transport drained a ``BatchKernel``).
MIN_DELIVERIES_PER_S = 10_000


def _config():
    return SCALE_PRESETS["tiny"].with_(**BENCH_OVERRIDES)


def bench_live_inprocess_throughput(benchmark):
    config = _config()
    start = time.perf_counter()
    result = benchmark.pedantic(
        run_live, args=(config,), rounds=1, iterations=1
    )
    elapsed = time.perf_counter() - start

    assert result.conserved and result.dropped == 0
    assert result.delivered > 0
    rate = result.delivered / elapsed
    benchmark.extra_info["deliveries_per_s"] = round(rate)
    benchmark.extra_info["deliveries"] = result.delivered
    assert rate >= MIN_DELIVERIES_PER_S, (
        f"in-process live transport moved {rate:.0f} deliveries/s, "
        f"below the {MIN_DELIVERIES_PER_S}/s floor"
    )

    # Bit-determinism: a second run reproduces every number exactly.
    again = run_live(config)
    assert again.loss_of_fidelity == result.loss_of_fidelity
    assert again.sent == result.sent
    assert again.per_repository_loss == result.per_repository_loss


def bench_live_vs_sim_overhead(benchmark):
    config = _config()

    sim_start = time.perf_counter()
    sim = run_simulation(config)
    sim_elapsed = time.perf_counter() - sim_start

    live_start = time.perf_counter()
    live = benchmark.pedantic(run_live, args=(config,), rounds=1, iterations=1)
    live_elapsed = time.perf_counter() - live_start

    # The cross-validation contract, asserted here too so the benchmark
    # can never go green while the planes drift.
    assert live.loss_of_fidelity == sim.loss_of_fidelity
    assert live.messages == sim.messages

    overhead = live_elapsed / sim_elapsed if sim_elapsed > 0 else 1.0
    benchmark.extra_info["live_vs_sim_overhead"] = round(overhead, 2)
    assert overhead < 10.0, (
        f"live in-process run took {overhead:.1f}x the simulation; "
        "the transport layer has become the dominant cost"
    )
