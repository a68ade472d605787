"""Cache-correctness suite: the content-addressed result cache.

The acceptance bar: warm reruns are bit-identical to cold runs, cache
keys are stable across processes, and disabling the cache forces
recomputation.
"""

import os
import subprocess
import sys

import pytest

from repro.engine.config import SCALE_PRESETS
from repro.experiments import api
from repro.experiments.cache import ResultCache, fingerprint

TINY = dict(n_items=6, trace_samples=300)

#: A light but representative slice of run_all: a plain sweep figure, a
#: non-sweep payload (table1), and both auxiliary planes (pull, hybrid).
SUBSET = ["table1", "figure11", "pull_baseline", "hybrid_tradeoff"]


def _run_subset(cache):
    return api.run_experiments(
        SUBSET, preset="tiny", cache=cache, overrides=TINY
    )


def _figure11(t_percent=80.0, jobs=1, cache=None):
    return api.run_experiment(
        "figure11", preset="tiny", params=dict(t_percent=t_percent),
        jobs=jobs, cache=cache, overrides=TINY,
    )


# ---------------------------------------------------------------- keys


def test_fingerprint_is_deterministic_and_content_addressed():
    a = SCALE_PRESETS["tiny"].with_(t_percent=50.0)
    b = SCALE_PRESETS["tiny"].with_(t_percent=50.0)
    c = SCALE_PRESETS["tiny"].with_(t_percent=51.0)
    assert fingerprint(a) == fingerprint(b)
    assert fingerprint(a) != fingerprint(c)


def test_fingerprint_ignores_dict_ordering():
    assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})


def test_fingerprint_distinguishes_types_and_shapes():
    assert fingerprint((1, 2)) != fingerprint((1.0, 2.0))
    assert fingerprint(((1, 2),)) != fingerprint((1, 2))
    assert fingerprint("1") != fingerprint(1)


def test_fingerprint_rejects_unhashable_vocabulary():
    with pytest.raises(TypeError):
        fingerprint(object())


def test_fingerprint_is_stable_across_processes():
    """String hashing is randomised per process; the cache key must not be."""
    config = SCALE_PRESETS["tiny"].with_(t_percent=80.0, policy="distributed")
    here = fingerprint(("sim", config))
    script = (
        "from repro.engine.config import SCALE_PRESETS\n"
        "from repro.experiments.cache import fingerprint\n"
        "config = SCALE_PRESETS['tiny'].with_(t_percent=80.0, "
        "policy='distributed')\n"
        "print(fingerprint(('sim', config)))\n"
    )
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="99")
    there = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True, env=env,
    ).stdout.strip()
    assert here == there


# --------------------------------------------------------------- store


def test_result_cache_roundtrip_and_stats(tmp_path):
    cache = ResultCache(tmp_path)
    key = ("sim", SCALE_PRESETS["tiny"])
    assert cache.get(key) is None
    assert cache.stats.misses == 1
    cache.put(key, {"loss": 1.25})
    assert cache.get(key) == {"loss": 1.25}
    assert cache.stats.hits == 1
    assert cache.stats.writes == 1


def test_result_cache_treats_corruption_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("key", "value")
    [entry] = list((tmp_path).rglob("*.pkl"))
    entry.write_bytes(b"not a pickle")
    assert cache.get("key", default="fallback") == "fallback"


def test_get_or_compute_computes_once(tmp_path):
    cache = ResultCache(tmp_path)
    calls = []
    for _ in range(2):
        value = cache.get_or_compute("k", lambda: calls.append(1) or 42)
    assert value == 42
    assert calls == [1]


# ---------------------------------------------------- warm == cold


def test_warm_rerun_is_bit_identical_to_cold_run(tmp_path):
    cache = ResultCache(tmp_path)
    cold = _figure11(cache=cache)
    warm = _figure11(cache=cache)
    assert warm == cold  # dataclass equality: exact float ==
    no_cache = _figure11()
    assert no_cache == cold


def test_warm_run_performs_zero_new_simulations(tmp_path):
    cache = ResultCache(tmp_path)
    cold = _run_subset(cache)
    assert cold.stats.total_simulated > 0
    warm = _run_subset(cache)
    assert warm.stats.total_simulated == 0
    assert warm.stats.cache_hits == warm.stats.distinct
    assert warm.payloads == cold.payloads
    assert warm.texts == cold.texts


def test_warm_run_hits_from_another_process(tmp_path):
    """End to end: a cache populated here is fully warm for a fresh
    interpreter (keys survive process boundaries)."""
    cache = ResultCache(tmp_path)
    _run_subset(cache)
    script = (
        "from repro.experiments import api\n"
        "from repro.experiments.cache import ResultCache\n"
        f"cache = ResultCache({str(tmp_path)!r})\n"
        f"report = api.run_experiments({SUBSET!r}, preset='tiny', "
        f"cache=cache, overrides={TINY!r})\n"
        "print('simulated:', report.stats.total_simulated)\n"
    )
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="7")
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True, env=env,
    ).stdout
    assert "simulated: 0" in out


def test_no_cache_forces_recomputation():
    first = _run_subset(cache=None)
    second = _run_subset(cache=None)
    assert second.stats.simulated == second.stats.distinct > 0
    assert second.stats.cache_hits == 0
    # Auxiliary planes are counted cache or no cache: 4 pull variants,
    # 5 hybrid thresholds, 1 table1 statistics point.
    assert second.stats.aux_computed == 10
    assert second.stats.aux_hits == 0
    assert first.payloads == second.payloads


def test_cache_does_not_leak_across_different_configs(tmp_path):
    cache = ResultCache(tmp_path)
    a = _figure11(t_percent=80.0, cache=cache)
    b = _figure11(t_percent=0.0, cache=cache)
    assert a != b  # different configs must not collide in the store


def test_parallel_and_serial_share_the_cache(tmp_path):
    """jobs=N and jobs=1 produce (and reuse) identical entries."""
    cache = ResultCache(tmp_path)
    parallel = _figure11(jobs=2, cache=cache)
    before = cache.stats.snapshot()
    serial = _figure11(jobs=1, cache=cache)
    assert serial == parallel
    assert cache.stats.hits - before.hits == 2  # both points answered warm
