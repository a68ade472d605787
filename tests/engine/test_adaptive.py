"""Unit tests for the adaptive re-optimization subsystem.

Covers the pieces below the kernels: policy validation and CLI-spec
parsing, the drift estimator's windowing arithmetic, the controller's
trigger/cooldown/cap gates, the load-aware LeLA hook, and the config
plumbing (composition with churn and failures).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dynamics import edges_of
from repro.core.lela import LelaBuilder, build_d3g
from repro.engine.adaptive import (
    AdaptiveController,
    AdaptivePolicy,
    DriftEstimator,
    parse_adaptive_spec,
)
from repro.engine.builder import build_setup
from repro.engine.churn import ChurnEvent, ChurnSchedule
from repro.engine.config import SCALE_PRESETS
from repro.engine.failures import FailureEvent, FailureSchedule
from repro.engine.simulation import run_simulation
from repro.errors import ConfigurationError, TreeConstructionError
from repro.workloads import FlashCrowdWorkload

BASE = SCALE_PRESETS["tiny"].with_(n_items=3, trace_samples=300, seed=3913)

POLICY = AdaptivePolicy(window=30.0, threshold=0.75)


def _adaptive_setup():
    return build_setup(
        BASE.with_(workload=FlashCrowdWorkload(), adaptive=POLICY)
    )


# ---------------------------------------------------------------- policy


def test_policy_defaults_are_valid_and_hashable():
    policy = AdaptivePolicy()
    assert policy.window == 60.0
    assert policy.scope == "subtree"
    assert hash(policy) == hash(AdaptivePolicy())


@pytest.mark.parametrize(
    "kwargs",
    [
        {"window": 0.0},
        {"window": -1.0},
        {"window": float("nan")},
        {"window": float("inf")},
        {"threshold": 0.0},
        {"threshold": float("nan")},
        {"cooldown": -0.5},
        {"cooldown": float("inf")},
        {"scope": "tree"},
        {"max_rewires": -1},
        {"max_rewires": 1.5},
    ],
)
def test_policy_rejects_invalid_fields(kwargs):
    with pytest.raises(ConfigurationError):
        AdaptivePolicy(**kwargs)


def test_spec_parsing_roundtrip():
    policy = parse_adaptive_spec(
        "window=40, threshold=0.5, cooldown=10, scope=global, max_rewires=4"
    )
    assert policy == AdaptivePolicy(
        window=40.0, threshold=0.5, cooldown=10.0, scope="global", max_rewires=4
    )
    assert parse_adaptive_spec("") == AdaptivePolicy()


@pytest.mark.parametrize("text", ["windows=3", "window", "window=abc", "max_rewires=1.5"])
def test_spec_parsing_rejects_bad_entries(text):
    with pytest.raises(ConfigurationError):
        parse_adaptive_spec(text)


# ---------------------------------------------------------------- config


def _composed_run_equals_the_oracle(config):
    engine = run_simulation(config)
    assert engine == run_simulation(config.with_(kernel="scalar"))
    assert engine.counters.deliveries + engine.counters.drops == engine.counters.messages
    assert engine.extras["adaptive_ticks"] > 0
    return engine


def test_adaptive_composes_with_churn():
    schedule = ChurnSchedule(
        events=(ChurnEvent.depart(40.0, 1), ChurnEvent.join(90.0, 1))
    )
    config = BASE.with_(workload=FlashCrowdWorkload(), adaptive=POLICY, churn=schedule)
    assert _composed_run_equals_the_oracle(config).extras["churn_events"] == 2


def test_adaptive_composes_with_failures():
    schedule = FailureSchedule(
        events=(FailureEvent.crash(10.0, 1), FailureEvent.recover(60.0, 1))
    )
    config = BASE.with_(
        workload=FlashCrowdWorkload(), adaptive=POLICY, failures=schedule
    )
    assert _composed_run_equals_the_oracle(config).extras["crashes"] == 1


def test_config_accepts_adaptive_for_every_push_policy():
    from repro.core.dissemination.filtering import FILTERED_POLICIES

    for policy in FILTERED_POLICIES:
        assert BASE.with_(adaptive=POLICY, policy=policy).adaptive is POLICY


def test_config_rejects_non_policy_adaptive_value():
    with pytest.raises(ConfigurationError):
        BASE.with_(adaptive="window=30")


# ------------------------------------------------------------- estimator


def test_estimator_baseline_window_reports_no_drift():
    estimator = DriftEstimator()
    assert estimator.observe({1: 10, 2: 4}) == {}


def test_estimator_stationary_counts_never_drift():
    estimator = DriftEstimator()
    for tick in range(1, 6):
        # Equal per-window increments: cumulative grows, drift stays 0.
        assert estimator.observe({1: 10 * tick, 2: 4 * tick}) == {}


def test_estimator_relative_drift_arithmetic():
    estimator = DriftEstimator()
    estimator.observe({1: 4, 2: 8})          # baseline window: 4, 8
    drifts = estimator.observe({1: 10, 2: 12})  # windows: 6, 4
    assert drifts == {1: abs(6 - 4) / 4, 2: abs(4 - 8) / 8}
    # A node that vanishes entirely still registers drift (prev vs 0).
    drifts = estimator.observe({1: 16, 2: 12})  # windows: 6, 0
    assert drifts == {2: 4 / 4}


# ------------------------------------------------------------ controller


def test_tick_times_cover_the_span_by_repeated_addition():
    controller = AdaptiveController(POLICY)
    times = controller.tick_times(299.0)
    assert times[0] == 30.0
    assert len(times) == 9
    assert all(b - a == pytest.approx(30.0) for a, b in zip(times, times[1:]))
    assert controller.tick_times(29.0) == []


def test_no_drift_means_no_rewire():
    controller = AdaptiveController(POLICY)
    counts = {node: 7 for node in range(1, 6)}
    for tick in range(1, 5):
        scaled = {node: value * tick for node, value in counts.items()}
        assert controller.on_tick(30.0 * tick, scaled) is None
    assert controller.ticks == 4
    assert controller.triggered == 0
    assert controller.rewires == 0


def test_the_load_is_the_hot_nodes_drift_or_every_nodes():
    for scope, load in (("subtree", {1: 9.0}), ("global", {1: 9.0, 2: 0.25})):
        controller = AdaptiveController(AdaptivePolicy(threshold=0.5, scope=scope))
        controller.on_tick(30.0, {1: 4, 2: 4})
        assert controller.on_tick(60.0, {1: 44, 2: 9}) == load


def test_cooldown_vetoes_but_counts_the_trigger():
    policy = AdaptivePolicy(window=30.0, threshold=0.5, cooldown=1.0e9)
    controller = AdaptiveController(policy)
    controller.on_tick(30.0, {1: 4})
    first = controller.on_tick(60.0, {1: 40})
    controller.rewired(60.0)
    vetoed = controller.on_tick(90.0, {1: 400})
    assert first is not None
    assert vetoed is None
    assert controller.rewires == 1
    assert controller.triggered == 2


def test_only_applied_rewires_start_a_cooldown():
    # The core reports back only a rebuild that changed edges; a tick let
    # through but not applied leaves the next one free.
    policy = AdaptivePolicy(window=30.0, threshold=0.5, cooldown=1.0e9)
    controller = AdaptiveController(policy)
    controller.on_tick(30.0, {1: 4})
    assert controller.on_tick(60.0, {1: 40}) is not None
    assert controller.on_tick(90.0, {1: 400}) is not None
    assert controller.rewires == 0


def test_max_rewires_caps_applied_rewires():
    policy = AdaptivePolicy(window=30.0, threshold=0.5, max_rewires=1)
    controller = AdaptiveController(policy)
    controller.on_tick(30.0, {1: 4})
    assert controller.on_tick(60.0, {1: 40}) is not None
    controller.rewired(60.0)
    assert controller.on_tick(90.0, {1: 400}) is None
    assert controller.rewires == 1
    assert controller.triggered == 2


# ------------------------------------------------------- load-aware LeLA


def test_empty_load_reoptimization_reproduces_the_original_graph():
    setup = _adaptive_setup()
    from repro.core.preference import get_preference_function
    from repro.sim.rng import RandomStreams

    rebuilt = build_d3g(
        profiles=[setup.profiles[r] for r in sorted(setup.profiles)],
        source=setup.source,
        comm_delay_ms=setup.network.delay_ms,
        offered_degree=setup.effective_degree,
        preference=get_preference_function(setup.config.preference),
        p_percent=setup.config.p_percent,
        rng=RandomStreams(setup.config.seed).stream("lela"),
        node_load={},
    )
    assert edges_of(rebuilt) == edges_of(setup.graph)


def test_nonzero_load_can_change_the_graph():
    setup = _adaptive_setup()
    from repro.core.preference import get_preference_function
    from repro.sim.rng import RandomStreams

    # Penalise every non-source repository heavily: the level ranking
    # must reshuffle somewhere on a 20-repository grid.
    load = {node: 50.0 for node in setup.graph.nodes if node != setup.source}
    rebuilt = build_d3g(
        profiles=[setup.profiles[r] for r in sorted(setup.profiles)],
        source=setup.source,
        comm_delay_ms=setup.network.delay_ms,
        offered_degree=setup.effective_degree,
        preference=get_preference_function(setup.config.preference),
        p_percent=setup.config.p_percent,
        rng=RandomStreams(setup.config.seed).stream("lela"),
        node_load=load,
    )
    # Same members either way; the load only re-ranks parents.
    assert set(rebuilt.nodes) == set(setup.graph.nodes)


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
def test_lela_builder_rejects_invalid_loads(bad):
    setup = _adaptive_setup()
    with pytest.raises(TreeConstructionError):
        LelaBuilder(
            source=setup.source,
            comm_delay_ms=setup.network.delay_ms,
            offered_degree=setup.effective_degree,
            node_load={1: bad},
        )


def test_build_d3g_accepts_node_load_passthrough():
    setup = _adaptive_setup()
    from repro.core.preference import get_preference_function
    from repro.sim.rng import RandomStreams

    graph = build_d3g(
        profiles=[setup.profiles[r] for r in sorted(setup.profiles)],
        source=setup.source,
        comm_delay_ms=setup.network.delay_ms,
        offered_degree=setup.effective_degree,
        preference=get_preference_function(setup.config.preference),
        p_percent=setup.config.p_percent,
        rng=RandomStreams(setup.config.seed).stream("lela"),
        node_load=None,
    )
    assert edges_of(graph) == edges_of(setup.graph)


def test_edges_of_is_the_public_diff_representation():
    setup = _adaptive_setup()
    edges = edges_of(setup.graph)
    assert edges and all(len(edge) == 4 for edge in edges)
    parents = {parent for parent, _child, _item, _c in edges}
    assert setup.source in parents
    assert all(np.isfinite(c) for _p, _ch, _it, c in edges)
