"""Unit tests for the parallel sweep-execution subsystem."""

import pickle

import pytest

from repro.engine.config import SCALE_PRESETS, SimulationConfig
from repro.engine.simulation import run_simulation
from repro.engine.sweep import _contiguous_chunks, resolve_jobs, run_sweep
from repro.errors import ConfigurationError

BASE = SCALE_PRESETS["tiny"].with_(n_items=3, trace_samples=200)


def test_resolve_jobs_passthrough_and_auto():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(7) == 7
    assert resolve_jobs(None) >= 1
    assert resolve_jobs(0) == resolve_jobs(None)


def test_resolve_jobs_rejects_negative():
    with pytest.raises(ConfigurationError):
        resolve_jobs(-2)


def test_contiguous_chunks_cover_in_order():
    items = list(enumerate("abcdefg"))
    chunks = _contiguous_chunks(items, 3)
    assert len(chunks) == 3
    assert [pair for chunk in chunks for pair in chunk] == items
    sizes = [len(c) for c in chunks]
    assert max(sizes) - min(sizes) <= 1


def test_contiguous_chunks_never_exceed_item_count():
    items = list(enumerate("ab"))
    chunks = _contiguous_chunks(items, 8)
    assert len(chunks) == 2
    assert all(chunk for chunk in chunks)


def test_empty_sweep():
    assert run_sweep([], jobs=1) == []
    assert run_sweep([], jobs=4) == []


def test_results_align_to_input_order():
    configs = [BASE.with_(offered_degree=d) for d in (4, 1, 8, 2)]
    results = run_sweep(configs, jobs=1)
    assert [r.effective_degree for r in results] == [4, 1, 8, 2]


def test_serial_matches_independent_runs_bitwise():
    """base= recycling inside a sweep is pure optimisation: each point's
    result equals a from-scratch run of the same config."""
    configs = [
        BASE.with_(offered_degree=1),
        BASE.with_(offered_degree=4),
        BASE.with_(offered_degree=4, comm_target_ms=10.0),
        BASE.with_(offered_degree=4, comm_target_ms=40.0),
    ]
    swept = run_sweep(configs, jobs=1)
    fresh = [run_simulation(c) for c in configs]
    assert swept == fresh


def test_parallel_matches_serial_bitwise():
    configs = [BASE.with_(offered_degree=d) for d in (1, 2, 4, 8, 12)]
    serial = run_sweep(configs, jobs=1)
    for jobs in (2, 4):
        assert run_sweep(configs, jobs=jobs) == serial


def test_parallel_with_more_workers_than_points():
    configs = [BASE.with_(offered_degree=d) for d in (1, 4)]
    assert run_sweep(configs, jobs=8) == run_sweep(configs, jobs=1)


def test_duplicate_configs_run_once_and_share_results():
    config = BASE.with_(offered_degree=3)
    results = run_sweep([config, BASE.with_(offered_degree=1), config], jobs=1)
    assert results[0] is results[2]
    assert results[0] == run_simulation(config)


def test_submission_order_does_not_change_per_config_results():
    configs = [BASE.with_(offered_degree=d) for d in (1, 2, 4, 8)]
    forward = dict(zip(configs, run_sweep(configs, jobs=2)))
    backward = dict(zip(reversed(configs), run_sweep(list(reversed(configs)), jobs=2)))
    assert forward == backward


def test_worker_errors_propagate():
    good = BASE.with_(offered_degree=2)
    # Constructs, then fails in the worker's build_setup (an unknown
    # policy no longer constructs at all).
    bad = BASE.with_(preference="no-such-preference")
    with pytest.raises(Exception):
        run_sweep([good, bad], jobs=2)


def test_config_and_result_pickle_round_trip():
    """The pool ships configs out and results back; both must survive
    pickling unchanged (config: bit-equal and hash-stable; result:
    bit-equal including nested counters/stats/extras)."""
    config = BASE.with_(offered_degree=3, comm_target_ms=12.5)
    thawed = pickle.loads(pickle.dumps(config))
    assert thawed == config
    assert hash(thawed) == hash(config)

    result = run_simulation(config)
    assert pickle.loads(pickle.dumps(result)) == result
