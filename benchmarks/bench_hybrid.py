"""Benchmark: the push-pull hybrid threshold sweep.

Shape assertions: fidelity improves monotonically as more subscriptions
ride the push plane, and the $0.1 paper boundary already recovers most
of pure push's fidelity.
"""

from repro.experiments import api


def bench_hybrid_threshold_tradeoff(once):
    result = once(
        api.run_experiment,
        "hybrid_tradeoff",
        preset="tiny",
        params=dict(thresholds=(0.005, 0.1, 1.0), t_percent=50.0),
        overrides=dict(n_items=8, trace_samples=500),
    )
    losses = result.series_by_label("loss %").ys
    shares = result.series_by_label("push share %").ys
    assert shares[0] < shares[1] < shares[2]
    assert losses[0] > losses[1] >= losses[2]
    # The paper's stringent/lax boundary already lands near pure push.
    assert losses[1] < 0.3 * losses[0]
