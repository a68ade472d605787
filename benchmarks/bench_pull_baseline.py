"""Benchmark: the push vs. pull extension experiment.

Shape assertions: cooperative push achieves the best fidelity; pull
fidelity degrades as the TTR grows; the adaptive TTR lands between the
fast and slow fixed settings on both fidelity and traffic.
"""

from repro.experiments import api


def bench_push_vs_pull(once):
    result = once(
        api.run_experiment,
        "pull_baseline",
        preset="tiny",
        params=dict(t_percent=80.0, ttrs_s=(2.0, 30.0)),
        overrides=dict(n_items=8, trace_samples=600),
    )
    systems = result.notes["systems"]
    losses = dict(zip(systems, result.series_by_label("loss %").ys))
    messages = dict(zip(systems, result.series_by_label("messages").ys))

    assert losses["push (coop)"] < min(
        loss for name, loss in losses.items() if name != "push (coop)"
    ), "cooperative push must dominate every pull variant on fidelity"
    assert losses["pull ttr=2s"] < losses["pull ttr=30s"]
    assert messages["pull ttr=2s"] > messages["pull ttr=30s"]
    adaptive = losses["pull adaptive"]
    assert losses["pull ttr=2s"] <= adaptive <= losses["pull ttr=30s"]
