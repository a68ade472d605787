"""Golden plans and schemas: what every registered spec asks the engine for.

A plan's fingerprint digests every planned config in order, so equal
literals mean equal cache keys and equal cross-figure deduplication.  The
literals come from hand-written per-figure plans, so they also pin that
the grid declarations in ``repro.experiments.figures`` plan those sweeps.
"""

from pathlib import Path

import pytest

from repro.experiments import api
from repro.experiments.cache import ResultCache
from repro.experiments.defaults import (
    DEFAULT_COMM_DELAYS,
    DEFAULT_COMP_DELAYS,
    DEFAULT_P_VALUES,
    DEFAULT_T_VALUES,
)
from repro.workloads import ReplayWorkload

#: ``name -> (len(plan), plan_fingerprint(plan)[:16])`` at ``tiny`` defaults.
PLANS = {
    "table1": (0, "5701f19b34e3fec0"),
    "figure3": (49, "e97e83b84e8f3a29"),
    "figure5": (42, "e510197fb5df7ba6"),
    "figure6": (42, "02ebf2ea2debe287"),
    "figure7": (133, "55b37d8e3cbd77f5"),
    "figure8": (14, "9327389f2fa033f4"),
    "figure9": (56, "9ea021965f478d7f"),
    "figure10": (28, "7ed2aac44dd39140"),
    "figure11": (2, "b9cfa8b7646f6a47"),
    "scalability": (3, "ae49ac4771ca3774"),
    "sensitivity": (8, "0163618b1f8093c5"),
    "pull_baseline": (1, "621d8ea09bef04fa"),
    "hybrid_tradeoff": (0, "5701f19b34e3fec0"),
    "churn_resilience": (8, "f41e4cc32df0c749"),
    "failure_resilience": (8, "cf70e9e364ea495f"),
    # The replay configs embed the corpus directory, which sits under the
    # cache root; digested with the path cut to its content-addressed
    # last component (see ``_portable``).
    "workload_sensitivity": (16, "371ca88b27c5e4a4"),
    "adaptive_tradeoff": (18, "a5873a9869fb2275"),
    "live_crosscheck": (28, "927867505e16ac9b"),
}

#: ``(name, kind, default)`` of every grid figure's parameters, in order.
SCHEMAS = {
    "figure3": [
        ("t_values", "floats", DEFAULT_T_VALUES),
        ("degrees", "ints", None),
        ("policy", "str", "centralized"),
    ],
    "figure5": [
        ("t_values", "floats", DEFAULT_T_VALUES),
        ("comm_delays_ms", "floats", DEFAULT_COMM_DELAYS),
        ("policy", "str", "centralized"),
    ],
    "figure6": [
        ("t_values", "floats", DEFAULT_T_VALUES),
        ("comp_delays_ms", "floats", DEFAULT_COMP_DELAYS),
        ("policy", "str", "centralized"),
    ],
    "figure7": [
        ("t_values", "floats", DEFAULT_T_VALUES),
        ("degrees", "ints", None),
        ("comm_delays_ms", "floats", DEFAULT_COMM_DELAYS),
        ("comp_delays_ms", "floats", DEFAULT_COMP_DELAYS),
        ("policy", "str", "centralized"),
    ],
    "figure8": [("degrees", "ints", None)],
    "figure9": [
        ("p_values", "floats", DEFAULT_P_VALUES),
        ("degrees", "ints", None),
        ("t_percent", "float", 80.0),
        ("policy", "str", "centralized"),
    ],
    "figure10": [
        ("degrees", "ints", None),
        ("t_percent", "float", 80.0),
        ("policy", "str", "centralized"),
    ],
}


def _portable(config):
    workload = config.workload
    if isinstance(workload, ReplayWorkload):
        return config.with_(
            workload=ReplayWorkload(path=Path(workload.path).name)
        )
    return config


def test_goldens_cover_the_whole_registry():
    assert list(PLANS) == api.available_experiments()


@pytest.mark.parametrize("name", PLANS)
def test_plan_matches_golden(name, tmp_path):
    spec = api.get_experiment(name)
    ctx = api.ExperimentContext(
        preset="tiny", params=spec.resolve_params(), cache=ResultCache(tmp_path)
    )
    plan = [_portable(config) for config in spec.plan(ctx)]
    assert (len(plan), api.plan_fingerprint(plan)[:16]) == PLANS[name]


@pytest.mark.parametrize("name", SCHEMAS)
def test_figure_schema_matches_golden(name):
    params = api.get_experiment(name).params
    assert [(p.name, p.kind, p.default) for p in params] == SCHEMAS[name]
    assert all(p.help for p in params)
