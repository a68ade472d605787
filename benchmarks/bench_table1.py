"""Benchmark: regenerate Table 1 (trace characteristics)."""

from repro.experiments import api
from repro.traces.library import PAPER_TICKERS


def bench_table1_regeneration(once):
    stats = once(api.run_experiment, "table1", params=dict(n_samples=10_000))
    assert len(stats) == len(PAPER_TICKERS)
    for s, spec in zip(stats, PAPER_TICKERS):
        assert s.name == spec.ticker
        assert s.n_samples == 10_000
        # The synthetic calibration lands in a band of the same order of
        # magnitude as the paper's observed min/max spread.
        assert 0.2 * spec.band < s.band < 4.0 * spec.band
        # ~1 value per second for ~2.8 hours, as in the paper.
        assert s.span_s == 9_999.0
