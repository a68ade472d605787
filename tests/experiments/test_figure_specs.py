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
    "figure3": (49, "d95ab24bd0f071dd"),
    "figure5": (42, "666ab600fbc27848"),
    "figure6": (42, "681414e1f84a6355"),
    "figure7": (133, "b9891062f7491ae9"),
    "figure8": (14, "7c31f3398f6ecadd"),
    "figure9": (56, "7355d7c1061c4664"),
    "figure10": (28, "e0c10ef74e0933f8"),
    "figure11": (2, "dda795fb9e9b5198"),
    "scalability": (3, "19663f069505b80b"),
    "sensitivity": (8, "0856eb9ffd5f8ede"),
    "pull_baseline": (5, "0c28c77e9fd3d1f6"),
    "hybrid_tradeoff": (5, "1c3c0196ee762205"),
    "churn_resilience": (8, "66e27e1d2eef4232"),
    "failure_resilience": (8, "0856d0f785e82181"),
    # The replay configs embed the corpus directory, which sits under the
    # cache root; digested with the path cut to its content-addressed
    # last component (see ``_portable``).
    "workload_sensitivity": (16, "d3f3e89895872a78"),
    "adaptive_tradeoff": (18, "78f71c0714ecf425"),
    "live_crosscheck": (28, "8b42996f1ec618fe"),
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
