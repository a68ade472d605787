"""Property-based tests for the adaptive re-optimization subsystem.

Three contracts, checked over drawn policies and traffic patterns:

- **cooldown**: two *applied* rewires are never closer than the
  policy's cooldown, whatever the drift pattern and whichever of the
  re-optimizations the drift gate lets through the run applies (the
  core applies only a rebuild that changed edges);
- **accounting**: a full run charges ``resubscriptions`` equal to the
  edges added plus removed and ``reconfigurations`` equal to the
  applied rewires;
- **no drift, no rewires**: a controller fed per-window-constant
  traffic never triggers, and the kernels agree bit-for-bit on every
  drawn adaptive config, serial or fanned out.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from example_counts import examples
from repro.engine.adaptive import AdaptiveController, AdaptivePolicy
from repro.engine.builder import build_setup
from repro.engine.config import SCALE_PRESETS
from repro.engine.simulation import run_simulation
from repro.engine.sweep import run_sweep
from repro.workloads import FlashCrowdWorkload

#: Small grid so each drawn example simulates in tens of milliseconds.
BASE = SCALE_PRESETS["tiny"].with_(
    n_repositories=10, n_routers=30, n_items=2, trace_samples=200, seed=3913,
    workload=FlashCrowdWorkload(),
)

#: The repositories the synthetic traffic is counted on.
NODES = sorted(build_setup(BASE).graph.nodes)

_policies = st.builds(
    AdaptivePolicy,
    window=st.sampled_from([20.0, 40.0, 60.0]),
    threshold=st.sampled_from([0.25, 0.75, 1.5]),
    cooldown=st.sampled_from([0.0, 30.0, 90.0]),
    scope=st.sampled_from(["subtree", "global"]),
    max_rewires=st.sampled_from([0, 1, 3]),
)

#: Per-tick traffic multipliers: each tick scales every node's window
#: count, so consecutive equal multipliers are drift-free and jumps are
#: drift.  Values are integers to keep counts exact.
_multipliers = st.lists(
    st.integers(min_value=1, max_value=50), min_size=2, max_size=8
)


def _feed(controller: AdaptiveController, multipliers: list[int], applies):
    """Drive the controller with synthetic traffic, applying the
    re-optimizations it lets through whose ``applies`` draw is true (as
    the core applies a rebuild that changed edges); return their times."""
    window = controller.policy.window
    cumulative = {node: 0 for node in NODES}
    rewire_times = []
    for tick, multiplier in enumerate(multipliers, start=1):
        for rank, node in enumerate(NODES):
            cumulative[node] += multiplier * (1 + rank % 3)
        now = window * tick
        if controller.on_tick(now, dict(cumulative)) is not None and applies(tick):
            controller.rewired(now)
            rewire_times.append(now)
    return rewire_times


@settings(max_examples=examples(30), deadline=None)
@given(policy=_policies, multipliers=_multipliers, data=st.data())
def test_cooldown_spacing_is_never_violated(policy, multipliers, data):
    controller = AdaptiveController(policy)
    applies = lambda tick: data.draw(st.booleans(), label=f"applied at tick {tick}")  # noqa: E731
    rewire_times = _feed(controller, multipliers, applies)
    assert controller.rewires == len(rewire_times)
    if policy.max_rewires:
        assert controller.rewires <= policy.max_rewires
    for earlier, later in zip(rewire_times, rewire_times[1:]):
        assert later - earlier >= policy.cooldown
    assert controller.triggered <= controller.ticks
    assert controller.rewires <= controller.triggered


@settings(max_examples=examples(20), deadline=None)
@given(policy=_policies, constant=st.integers(min_value=1, max_value=100))
def test_drift_free_traffic_never_triggers(policy, constant):
    controller = AdaptiveController(policy)
    rewire_times = _feed(controller, [constant] * 6, lambda tick: True)
    assert rewire_times == []
    assert controller.triggered == 0


@settings(max_examples=examples(8), deadline=None)
@given(
    window=st.sampled_from([25.0, 40.0]),
    threshold=st.sampled_from([0.5, 0.75]),
    max_rewires=st.sampled_from([1, 2]),
)
def test_full_run_charges_reconfiguration_cost(window, threshold, max_rewires):
    config = BASE.with_(
        adaptive=AdaptivePolicy(
            window=window, threshold=threshold, max_rewires=max_rewires
        )
    )
    result = run_simulation(config.with_(kernel="scalar"))
    counters = result.counters
    assert counters.reconfigurations == result.extras["adaptive_rewires"]
    assert counters.resubscriptions == (
        counters.edges_added + counters.edges_removed
    )
    if counters.reconfigurations:
        assert counters.resubscriptions > 0
    assert run_simulation(config.with_(kernel="vectorized")) == result


def test_adaptive_sweep_serial_equals_parallel():
    configs = [
        BASE.with_(
            adaptive=AdaptivePolicy(
                window=window, threshold=threshold, max_rewires=1
            )
        )
        for window in (25.0, 40.0)
        for threshold in (0.5, 0.75)
    ]
    serial = run_sweep(configs, jobs=1)
    assert run_sweep(configs, jobs=4) == serial
    assert any(r.extras["adaptive_rewires"] > 0 for r in serial)
