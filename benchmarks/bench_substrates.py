"""Micro-benchmarks of the substrates the reproduction runs on.

These are conventional pytest-benchmark timings (many rounds): the
event kernel's throughput, shortest-path routing at a fraction of the
paper's base scale, and the vectorised fidelity metric.
"""

import numpy as np

from repro.core.fidelity import loss_of_fidelity
from repro.network.delays import ParetoDelayModel
from repro.network.routing import build_routing
from repro.network.topology import generate_topology
from repro.sim.kernel import Simulator


def bench_kernel_throughput(benchmark):
    """Schedule-and-run 10k chained events."""

    def run():
        sim = Simulator()

        def chain(n):
            if n:
                sim.schedule_at(sim.now + 0.001, chain, n - 1)

        sim.schedule_at(0.0, chain, 10_000)
        sim.run()
        return sim.events_processed

    events = benchmark(run)
    assert events == 10_001


def bench_routing_200_nodes(benchmark):
    """Source + 30 repositories routed over a 200-node random mesh."""
    topo = generate_topology(30, 169, np.random.default_rng(0), ParetoDelayModel())

    routing = benchmark(build_routing, topo)
    assert routing.dist_ms.shape == (31, 31)
    assert np.isfinite(routing.dist_ms).all()


def bench_fidelity_metric_10k_steps(benchmark):
    """Loss computation over two 10k-step functions."""
    rng = np.random.default_rng(1)
    src_t = np.arange(10_000, dtype=float)
    src_v = np.cumsum(rng.normal(0, 0.02, 10_000)) + 50.0
    recv_t = src_t + 0.15
    recv_t[0] = 0.0

    loss = benchmark(
        loss_of_fidelity, src_t, src_v, recv_t, src_v, 0.05, 0.0, 9_999.0
    )
    assert 0.0 <= loss <= 100.0
