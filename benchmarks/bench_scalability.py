"""Benchmark: Section 6.3.5 scalability, plus the batch-kernel pins.

Four guarantees live here:

1. Shape: tripling the repository count under controlled cooperation
   grows the loss of fidelity by less than 5 percentage points.
2. Performance: on the ``scalability`` preset (10^3 repositories, 10^5+
   modeled clients) the vectorized kernel beats the scalar
   oracle by at least 40x wall-clock while producing a bit-identical
   ``SimulationResult``.
3. Performance, base case: on the ``paper`` preset (100 repositories,
   20 items, offered degree 4, no clients) -- edge groups 1-4 wide, the
   shape every paper figure runs -- the same kernel beats the scalar
   oracle by at least 2.5x, bit-identically, so ``kernel="auto"``
   picking the slower kernel cannot come back silently.  Measured:
   3.6-5.6x over ten runs (3.0-3.5x before leaf deliveries landed at
   their push site).
4. Exactness, no cooperation: with every repository hanging off the
   source every receiving edge group is a leaf, so the batch kernel
   lands every delivery at its push site and its heap stays empty --
   and the result is still the scalar oracle's, bit for bit.

The client-plane pin trims the preset's trace length, item count and
router mesh (set-up is identical for both kernels, so it would only
dilute the measured ratio) but keeps the full thousand repositories and
grows the client plane to 2 million modeled clients -- the regime the
vectorized kernel exists for.  Measured on the development container:
109x (scalar 24.1 s, vectorized 0.221 s; 65 322 681 client checks and
50 360 058 client messages decided in 41 164 ``Staircase.serve`` calls
of 1.89 runs on average, p99 6, max 8).  One numpy call sequence per
delivery, the form before the staircase, read 35x (0.699 s).
"""

import time

from repro.engine.builder import build_setup
from repro.engine.config import SCALE_PRESETS
from repro.engine.oracle import DisseminationSimulation
from repro.engine.simulation import VectorizedSimulation
from repro.experiments import api

#: The scalability preset, trimmed where both kernels pay identically.
SPEEDUP_CONFIG = SCALE_PRESETS["scalability"].with_(
    n_routers=120,
    n_items=2,
    trace_samples=150,
    clients_per_repository=2_000,
)


#: The paper's base case, traces trimmed (per-event cost is unchanged).
BASE_CASE_CONFIG = SCALE_PRESETS["paper"].with_(trace_samples=300)

#: No cooperation (Figures 5/6's shape): the source serves everybody.
NO_COOPERATION_CONFIG = BASE_CASE_CONFIG.with_(
    offered_degree=BASE_CASE_CONFIG.n_repositories
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


def _kernel_speedup(benchmark, config) -> float:
    """Scalar-over-vectorized wall-clock ratio on one built setup, after
    checking the two results are bit-identical."""
    setup = build_setup(config)

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
        config.n_repositories * config.clients_per_repository
    )
    return speedup


def bench_vectorized_kernel_speedup(benchmark):
    """The client-plane pin: >=40x over the scalar oracle, bit-identical."""
    speedup = _kernel_speedup(benchmark, SPEEDUP_CONFIG)
    assert speedup >= 40.0, f"only {speedup:.1f}x: {benchmark.extra_info}"


def bench_base_case_kernel_speedup(benchmark):
    """The narrow-group pin: >=2.5x on the paper's own base case."""
    speedup = _kernel_speedup(benchmark, BASE_CASE_CONFIG)
    assert speedup >= 2.5, f"only {speedup:.2f}x: {benchmark.extra_info}"


def bench_no_cooperation_lands_every_delivery(benchmark):
    """The all-leaf pin: nothing but source groups has dependents, so no
    delivery travels the heap -- and ``_kernel_speedup`` still finds the
    result bit-identical to the oracle's."""
    sim = VectorizedSimulation(build_setup(NO_COOPERATION_CONFIG))
    assert all(
        issrc or not cs for issrc, cs in zip(sim._g_issrc, sim._g_cs, strict=True)
    )
    _kernel_speedup(benchmark, NO_COOPERATION_CONFIG)
