"""Benchmark: Section 6.3.5 scalability, plus the vectorized-kernel pin.

Two guarantees live here:

1. Shape: tripling the repository count under controlled cooperation
   grows the loss of fidelity by less than 5 percentage points.
2. Performance: on the ``scalability`` preset (10^3 repositories, 10^5+
   modeled clients) the vectorized array-backed kernel beats the scalar
   oracle by at least 10x wall-clock while producing a bit-identical
   ``SimulationResult``.

The performance pin trims the preset's trace length, item count and
router mesh (set-up is identical for both kernels, so it would only
dilute the measured ratio) but keeps the full thousand repositories and
grows the client plane to 2 million modeled clients -- the regime the
vectorized kernel exists for.  Measured speedup on the development
container: ~25x.
"""

import time

from repro.engine.builder import build_setup
from repro.engine.config import SCALE_PRESETS
from repro.engine.simulation import DisseminationSimulation
from repro.engine.vectorized import VectorizedSimulation
from repro.experiments import api

#: The scalability preset, trimmed where both kernels pay identically.
SPEEDUP_CONFIG = SCALE_PRESETS["scalability"].with_(
    n_routers=120,
    n_items=2,
    trace_samples=150,
    clients_per_repository=2_000,
)


def bench_scalability_triple_repositories(once):
    result = once(
        api.run_experiment,
        "scalability",
        preset="tiny",
        params=dict(repo_counts=(20, 40, 60), t_percent=80.0),
        overrides=dict(n_items=8, trace_samples=500),
    )
    assert result.notes["loss increase base->max (paper: <5%)"] < 5.0
    losses = result.series_by_label("controlled cooperation").ys
    assert all(0.0 <= loss <= 100.0 for loss in losses)


def bench_vectorized_kernel_speedup(benchmark):
    """The tentpole pin: >=10x over the scalar oracle, bit-identical."""
    setup = build_setup(SPEEDUP_CONFIG)

    start = time.perf_counter()
    scalar_result = DisseminationSimulation(setup).run()
    scalar_s = time.perf_counter() - start

    start = time.perf_counter()
    vector_result = benchmark.pedantic(
        lambda: VectorizedSimulation(setup).run(), rounds=1, iterations=1
    )
    vector_s = time.perf_counter() - start

    assert vector_result == scalar_result  # full-dataclass bit-identity
    speedup = scalar_s / vector_s
    benchmark.extra_info["scalar_s"] = round(scalar_s, 3)
    benchmark.extra_info["vectorized_s"] = round(vector_s, 3)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    benchmark.extra_info["modeled_clients"] = (
        SPEEDUP_CONFIG.n_repositories * SPEEDUP_CONFIG.clients_per_repository
    )
    assert speedup >= 10.0, (
        f"vectorized kernel only {speedup:.1f}x faster than the scalar "
        f"oracle (scalar {scalar_s:.2f}s, vectorized {vector_s:.2f}s)"
    )
