"""Unit tests for simulation configuration and presets."""

import math

import pytest

from repro.engine.config import SCALE_PRESETS, SimulationConfig
from repro.errors import ConfigurationError


def test_default_config_matches_paper_parameters():
    config = SimulationConfig()
    assert config.comp_delay_ms == 12.5
    assert config.link_delay_mean_ms == 15.0
    assert config.link_delay_min_ms == 2.0
    assert config.subscription_probability == 0.5
    assert config.p_percent == 5.0
    assert config.interest_fraction_f == 50.0


def test_presets_exist_and_scale_up():
    assert set(SCALE_PRESETS) == {"tiny", "small", "paper", "scalability"}
    tiny, small, paper = (
        SCALE_PRESETS["tiny"],
        SCALE_PRESETS["small"],
        SCALE_PRESETS["paper"],
    )
    assert tiny.n_repositories < small.n_repositories < paper.n_repositories
    assert tiny.trace_samples < small.trace_samples < paper.trace_samples


def test_scalability_preset_reaches_roadmap_scale():
    # ROADMAP item 1: 10^3+ repositories, 10^5-10^6 modeled clients.
    scale = SCALE_PRESETS["scalability"]
    assert scale.n_repositories >= 1_000
    assert scale.n_repositories * scale.clients_per_repository >= 100_000
    assert scale.kernel == "auto"


@pytest.mark.parametrize("kernel", ["auto", "scalar", "vectorized"])
def test_kernel_field_accepts_known_kernels(kernel):
    assert SimulationConfig(kernel=kernel).kernel == kernel


def test_unknown_kernel_rejected():
    with pytest.raises(ConfigurationError):
        SimulationConfig(kernel="gpu")


def test_vectorized_kernel_takes_churn_and_rejects_exotic_policies():
    from repro.engine.churn import ChurnEvent, ChurnSchedule

    schedule = ChurnSchedule(events=(ChurnEvent.depart(10.0, 1),))
    config = SimulationConfig(kernel="vectorized", churn=schedule)
    assert config.churn == schedule
    with pytest.raises(ConfigurationError, match="supports policies"):
        SimulationConfig(kernel="vectorized", policy="pull")


@pytest.mark.parametrize("kernel", ["auto", "scalar", "vectorized"])
def test_unknown_policy_rejected_at_construction_under_every_kernel(kernel):
    """It used to construct and fail inside ``make_policy`` at run time."""
    with pytest.raises(ConfigurationError, match="supports policies"):
        SimulationConfig(kernel=kernel, policy="bogus")
    from repro.engine.adaptive import AdaptivePolicy

    with pytest.raises(ConfigurationError, match="supports policies"):
        SimulationConfig(policy="bogus", adaptive=AdaptivePolicy())


def test_churn_tolerances_validated_at_build_time():
    from repro.engine.churn import ChurnEvent, ChurnSchedule

    bad = ChurnSchedule(
        events=(ChurnEvent.update(10.0, 1, {0: 1e-12}),)
    )
    with pytest.raises(ConfigurationError, match="quantisation"):
        SimulationConfig(churn=bad)
    nan = ChurnSchedule(
        events=(ChurnEvent.update(10.0, 1, {0: float("nan")}),)
    )
    with pytest.raises(ConfigurationError, match="finite"):
        SimulationConfig(churn=nan)


def test_negative_clients_rejected():
    with pytest.raises(ConfigurationError):
        SimulationConfig(clients_per_repository=-1)


def test_paper_preset_matches_base_case():
    paper = SCALE_PRESETS["paper"]
    assert paper.n_repositories == 100
    assert paper.n_routers == 600
    assert paper.trace_samples == 10_000


def test_with_replaces_fields_immutably():
    config = SimulationConfig()
    other = config.with_(t_percent=20.0, offered_degree=9)
    assert other.t_percent == 20.0
    assert other.offered_degree == 9
    assert config.t_percent != 20.0 or config.offered_degree != 9
    assert config is not other


def test_config_is_frozen():
    config = SimulationConfig()
    with pytest.raises(AttributeError):
        config.t_percent = 50.0  # type: ignore[misc]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_repositories": 0},
        {"n_routers": -1},
        {"n_items": 0},
        {"trace_samples": 1},
        {"comp_delay_ms": -1.0},
        {"link_delay_mean_ms": -1.0},
        {"comm_target_ms": -5.0},
        {"offered_degree": 0},
        {"t_percent": 150.0},
        {"interest_fraction_f": 0.0},
        {"p_percent": -1.0},
    ],
)
def test_invalid_config_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        SimulationConfig(**kwargs)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize(
    "name",
    [
        "comp_delay_ms",
        "link_delay_mean_ms",
        "link_delay_min_ms",
        "comm_target_ms",
        "avg_degree",
        "interest_fraction_f",
        "p_percent",
    ],
)
def test_non_finite_float_fields_are_refused_by_name(name, value):
    with pytest.raises(ConfigurationError, match=name):
        SimulationConfig(**{name: value})


INTEGER_FIELDS = (
    "seed",
    "n_repositories",
    "n_routers",
    "n_items",
    "trace_samples",
    "offered_degree",
    "clients_per_repository",
)

#: Before the check, ``n_items=2.5`` died mid-build with a bare
#: ``TypeError``, ``n_repositories=nan`` with numpy's ``AxisError``,
#: ``seed=-1`` with a bare ``ValueError``; ``clients_per_repository=nan``
#: ran with no clients and ``n_items=True`` as one item.
BAD_INTEGERS = [
    (name, value, f"{name} must be an integer")
    for name in INTEGER_FIELDS
    for value in (2.5, 3.0, math.nan, True)
] + [("seed", -1, "seed must be >= 0")]


@pytest.mark.parametrize(
    "name, value, message",
    BAD_INTEGERS,
    ids=[f"{name}={value!r}" for name, value, _ in BAD_INTEGERS],
)
def test_non_integer_integer_fields_are_refused_by_name(name, value, message):
    with pytest.raises(ConfigurationError, match=message):
        SimulationConfig(**{name: value})


def test_numpy_integers_are_accepted():
    import numpy as np

    config = SimulationConfig(**{name: np.int64(3) for name in INTEGER_FIELDS})
    assert config == SimulationConfig(**{name: 3 for name in INTEGER_FIELDS})


def test_with_revalidates():
    config = SimulationConfig()
    with pytest.raises(ConfigurationError):
        config.with_(offered_degree=0)


def test_default_workload_is_table1():
    from repro.workloads import Table1Workload

    assert SimulationConfig().workload == Table1Workload()


def test_configs_differing_only_in_workload_are_distinct_hash_keys():
    from repro.workloads import DiurnalWorkload

    base = SimulationConfig()
    other = base.with_(workload=DiurnalWorkload())
    assert base != other
    # The sweep merge keys results by config: workload-only deltas must
    # land in distinct dict slots.
    assert len({base: "a", other: "b"}) == 2
    assert base == SimulationConfig()


def test_invalid_workload_rejected():
    from repro.workloads import FlashCrowdWorkload

    with pytest.raises(ConfigurationError):
        SimulationConfig(workload="flash_crowd")
    with pytest.raises(ConfigurationError):
        SimulationConfig(workload=FlashCrowdWorkload(alpha=-1.0))
