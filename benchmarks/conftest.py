"""Shared helpers for the benchmark harness.

Each ``bench_*.py`` runs one subsystem or extension experiment on the
``tiny`` scale preset and asserts its qualitative shape, while
pytest-benchmark records how long the run takes.  The shape checks of
the paper's own figures live in tier-1
(``tests/experiments/test_figures.py``); the committed wall-clock and
per-layer numbers live in the perf ledger (see
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


@pytest.fixture
def once(benchmark):
    """Run a callable exactly once under the benchmark timer."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run
