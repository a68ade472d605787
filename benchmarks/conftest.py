"""Shared helpers for the benchmark harness.

Each ``bench_*.py`` regenerates one of the paper's tables or figures on
the ``tiny`` scale preset and asserts its qualitative shape, while
pytest-benchmark records how long the regeneration takes.  The committed
wall-clock and per-layer numbers live in the perf ledger (see
``benchmarks/ledger/README.md``; ``python -m benchmarks.ledger``).

Simulations are deterministic and relatively slow (hundreds of ms to
seconds), so every benchmark uses ``benchmark.pedantic`` with a single
round: the value is the reproduction check, not nanosecond timing.
"""

from __future__ import annotations

import pytest

#: Workload used by the shape checks: small enough for CI, loaded enough
#: (12 items, 25 ms computation -- inside the paper's Figure 6 sweep)
#: that the source-side queueing effects are visible at 20 repositories.
BENCH_OVERRIDES = dict(n_items=12, comp_delay_ms=25.0, trace_samples=500)

#: Reduced degree grid covering chain, optimum and full fan-out.
BENCH_DEGREES = [1, 2, 4, 8, 20]


@pytest.fixture
def once(benchmark):
    """Run a callable exactly once under the benchmark timer."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run
