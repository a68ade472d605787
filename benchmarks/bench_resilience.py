"""Benchmark: unplanned-failure recovery overhead, resync cost, identity.

Three measurements over the tiny-preset workload:

- **failure overhead**: wall-clock of a run with injected crashes and
  partitions (2 crash/recover pairs, 2 link down/up windows) against
  the fault-free run of the same config.  Each crash diffs the graph
  and fails orphans over to a live ancestor; each recovery replays an
  anti-entropy resync; the assertion bounds that machinery to a small
  multiple of the static run so failover can never silently become the
  dominant cost.
- **resync economy**: anti-entropy recovery checks one value per
  subscribed item and transfers only the diverged ones, so its message
  cost must come in strictly under a full-state transfer (which would
  ship every subscribed item unconditionally).
- **kernel bit-identity**: the scalar oracle and the vectorized kernel
  must agree bit-for-bit under the same failure schedule -- the PR-6
  equivalence contract extended to unplanned failures.

Conservation (``deliveries + drops == messages``) is asserted on every
run: with real drops in the economy it is the accounting contract the
failure subsystem adds.
"""

from __future__ import annotations

import time

from benchmarks.conftest import BENCH_OVERRIDES
from repro.engine import SCALE_PRESETS, failures_for_config, run_simulation

FAILURES_PER_KIND = 2


def _base_config():
    return SCALE_PRESETS["tiny"].with_(**BENCH_OVERRIDES)


def _failed_config():
    base = _base_config()
    schedule = failures_for_config(
        base, crashes=FAILURES_PER_KIND, partitions=FAILURES_PER_KIND
    )
    return base.with_(failures=schedule)


def _assert_conserved(result):
    assert result.conserved


def bench_failure_recovery_overhead(benchmark):
    static_config = _base_config()
    failed_config = _failed_config()

    start = time.perf_counter()
    static = run_simulation(static_config)
    static_s = time.perf_counter() - start

    start = time.perf_counter()
    failed = benchmark.pedantic(
        run_simulation, args=(failed_config,), rounds=1, iterations=1
    )
    failed_s = time.perf_counter() - start

    _assert_conserved(failed)
    assert failed.counters.drops > 0  # crashes + partitions really dropped
    assert failed.counters.resyncs == FAILURES_PER_KIND  # one per recovery
    assert failed.counters.edges_added > 0  # orphans were re-homed
    # Fidelity degrades but does not collapse under two crashes and two
    # partitions of a 20-repository network.
    assert failed.loss_of_fidelity < static.loss_of_fidelity + 25.0
    # Same seed, same schedule: the failed run is fully deterministic.
    assert run_simulation(failed_config) == failed

    benchmark.extra_info["static_s"] = round(static_s, 3)
    benchmark.extra_info["failed_s"] = round(failed_s, 3)
    benchmark.extra_info["drops"] = failed.counters.drops
    benchmark.extra_info["failover_edge_moves"] = (
        failed.counters.edges_added + failed.counters.edges_removed
    )
    # Four failure events (each a graph diff + rewiring or a resync)
    # must stay a modest multiple of the static run; the +0.5 s floor
    # absorbs timer noise on loaded CI runners.
    assert failed_s < 5.0 * static_s + 0.5, (
        f"failure overhead exploded: static {static_s:.2f}s vs "
        f"failed {failed_s:.2f}s"
    )


def bench_resync_cheaper_than_full_state(benchmark):
    failed = benchmark.pedantic(
        run_simulation, args=(_failed_config(),), rounds=1, iterations=1
    )

    _assert_conserved(failed)
    counters = failed.counters
    assert counters.resyncs == FAILURES_PER_KIND
    # A full-state transfer ships one value per subscribed item per
    # recovery -- exactly what the anti-entropy pass *checks*.  The
    # replayed update-set only carries the diverged items, so its
    # message cost must come in strictly under that.
    assert counters.resync_checks > 0
    assert counters.resync_messages < counters.resync_checks, (
        f"anti-entropy resync sent {counters.resync_messages} messages "
        f"for {counters.resync_checks} subscribed items -- no cheaper "
        "than a full-state transfer"
    )

    benchmark.extra_info["resyncs"] = counters.resyncs
    benchmark.extra_info["full_state_cost"] = counters.resync_checks
    benchmark.extra_info["resync_messages"] = counters.resync_messages
    benchmark.extra_info["resync_savings_pct"] = round(
        100.0 * (1.0 - counters.resync_messages / counters.resync_checks), 1
    )


def bench_failure_kernel_bit_identity(benchmark):
    failed_config = _failed_config()
    scalar = run_simulation(failed_config.with_(kernel="scalar"))

    vectorized = benchmark.pedantic(
        run_simulation,
        args=(failed_config.with_(kernel="vectorized"),),
        rounds=1,
        iterations=1,
    )

    assert vectorized == scalar
    _assert_conserved(vectorized)
    assert vectorized.counters.drops == scalar.counters.drops
    assert vectorized.counters.resync_messages == scalar.counters.resync_messages
