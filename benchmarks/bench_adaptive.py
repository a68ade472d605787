"""Benchmark: adaptive re-optimization overhead and its fidelity win.

Two measurements over the tiny-preset workload:

- **controller overhead**: a drift-free ``table1`` run with the
  adaptive controller armed but never firing (threshold far above any
  stationary drift) against the same config without it.  The controller
  then costs only the periodic counter snapshots and the window
  arithmetic, and the assertion bounds that to <5% of the static run
  (plus a small floor for timer noise on loaded CI runners) -- carrying
  the controller can never silently tax runs that don't need it.
- **fidelity win**: under the ``flash_crowd`` drift pattern, one
  drift-triggered rewire must beat the static LeLA build on loss of
  fidelity without spending more in total (update messages plus
  resubscriptions) -- the ``adaptive_tradeoff`` domination claim, pinned
  at benchmark scale.

Determinism (re-running reproduces the result bit-for-bit) and
conservation (``deliveries + drops == messages``) are asserted on every
adaptive run.
"""

from __future__ import annotations

import time

from benchmarks.conftest import BENCH_OVERRIDES
from repro.engine import SCALE_PRESETS, run_simulation
from repro.engine.adaptive import AdaptivePolicy
from repro.workloads import FlashCrowdWorkload

#: Stationary table1 traffic never drifts this far; the controller
#: ticks but must never trigger (asserted below, not assumed).
QUIET = AdaptivePolicy(window=60.0, threshold=10.0)

#: The winning grid point at benchmark scale: one subtree-scoped rewire
#: after the first minute of flash-crowd drift.
ACTIVE = AdaptivePolicy(window=60.0, threshold=0.75, max_rewires=1)


def _base_config():
    return SCALE_PRESETS["tiny"].with_(**BENCH_OVERRIDES)


def _assert_conserved(result):
    assert result.conserved


def _best_of(config, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run_simulation(config)
        best = min(best, time.perf_counter() - start)
    return result, best


def bench_idle_controller_overhead(benchmark):
    static_config = _base_config()
    quiet_config = static_config.with_(adaptive=QUIET)

    static, static_s = _best_of(static_config)
    quiet, quiet_s = _best_of(quiet_config)
    benchmark.pedantic(
        run_simulation, args=(quiet_config,), rounds=1, iterations=1
    )

    # Armed but silent: the controller ticked, never triggered, and the
    # run is observationally the static run.
    assert quiet.extras["adaptive_ticks"] > 0
    assert quiet.extras["adaptive_triggered"] == 0
    assert quiet.extras["adaptive_rewires"] == 0
    assert quiet.counters.reconfigurations == 0
    assert quiet.loss_of_fidelity == static.loss_of_fidelity
    assert quiet.counters.messages == static.counters.messages
    _assert_conserved(quiet)

    overhead = (quiet_s - static_s) / static_s
    benchmark.extra_info["static_s"] = round(static_s, 4)
    benchmark.extra_info["quiet_s"] = round(quiet_s, 4)
    benchmark.extra_info["overhead_percent"] = round(100.0 * overhead, 2)
    # <5% of the static run; the +50 ms floor absorbs scheduler noise
    # when the static run itself finishes in a couple hundred ms.
    assert quiet_s < 1.05 * static_s + 0.05, (
        f"idle adaptive controller cost {100.0 * overhead:.1f}%: "
        f"static {static_s:.3f}s vs armed {quiet_s:.3f}s"
    )


def bench_fidelity_win_under_flash_crowd(benchmark):
    flash_config = _base_config().with_(workload=FlashCrowdWorkload())
    adaptive_config = flash_config.with_(adaptive=ACTIVE)

    static = run_simulation(flash_config)
    adaptive = benchmark.pedantic(
        run_simulation, args=(adaptive_config,), rounds=1, iterations=1
    )

    _assert_conserved(adaptive)
    assert adaptive.extras["adaptive_rewires"] == 1
    assert adaptive.counters.resubscriptions > 0
    # The domination claim at benchmark scale: strictly better fidelity
    # at no extra total cost, reconfiguration charged honestly.
    static_cost = static.counters.messages + static.counters.resubscriptions
    adaptive_cost = (
        adaptive.counters.messages + adaptive.counters.resubscriptions
    )
    assert adaptive.loss_of_fidelity < static.loss_of_fidelity
    assert adaptive_cost <= static_cost
    # Same seed, same policy: the adaptive run is fully deterministic.
    assert run_simulation(adaptive_config) == adaptive

    benchmark.extra_info["static_loss"] = round(static.loss_of_fidelity, 4)
    benchmark.extra_info["adaptive_loss"] = round(
        adaptive.loss_of_fidelity, 4
    )
    benchmark.extra_info["static_cost"] = static_cost
    benchmark.extra_info["adaptive_cost"] = adaptive_cost
