"""Golden-seed adaptive-vs-static regression suite.

Pins the adaptive subsystem's observable behaviour on fixed seeds so a
refactor of the controller, the kernels, or the rewiring path cannot
silently change results:

- a *hit* policy (window=30, threshold=0.75) fires on both drifting
  workloads and its loss/cost/rewire numbers are pinned to the literal
  values measured at introduction;
- a *miss* policy (window=100, threshold=0.75) never crosses the
  threshold and must reproduce the static run's result exactly --
  adaptation that doesn't trigger is free (no cost, no fidelity delta);
- every adaptive run is bit-identical between the scalar oracle and the
  vectorized kernel (full ``SimulationResult`` dataclass equality), and
  sweep execution is bit-identical serial vs multiprocess;
- a run that churns *and* rewires is pinned at two seeds and both exact
  policies, with the order of its graph changes: a join lands on a
  rewired graph, and a rewire re-optimizes a churn rebuild.
"""

from __future__ import annotations

import pytest

from repro.engine.adaptive import AdaptivePolicy
from repro.engine.churn import ChurnEvent, schedule_for_config
from repro.engine.config import SCALE_PRESETS
from repro.engine.reconfig import ReconfigurationCore
from repro.engine.simulation import run_simulation
from repro.engine.sweep import run_sweep
from repro.experiments.live_crosscheck import compare
from repro.live import run_live
from repro.workloads import DiurnalWorkload, FlashCrowdWorkload

BASE = SCALE_PRESETS["tiny"].with_(n_items=3, trace_samples=300, seed=3913)

WORKLOADS = {
    "flash_crowd": FlashCrowdWorkload(),
    "diurnal": DiurnalWorkload(),
}

#: Fires 2 capped rewires on both drifting workloads at this scale.
HIT = AdaptivePolicy(window=30.0, threshold=0.75, max_rewires=2)
#: Two 100 s windows fit the 300 s traces; neither crosses 0.75.
MISS = AdaptivePolicy(window=100.0, threshold=0.75)

#: The pinned goldens: (loss, messages, reconfigurations, edges_added,
#: edges_removed, rewires, ticks, triggered), measured at introduction
#: on seed 3913.  An intentional behaviour change must update these
#: literals in the same commit that changes the behaviour.
GOLDEN = {
    "flash_crowd": (0.9771564928952374, 1292, 2, 26, 27, 2, 9, 3),
    "diurnal": (1.31505672250742, 1465, 2, 32, 33, 2, 9, 4),
}


def _pair(config):
    scalar = run_simulation(config.with_(kernel="scalar"))
    vector = run_simulation(config.with_(kernel="vectorized"))
    return scalar, vector


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_hit_policy_golden_values(workload):
    config = BASE.with_(workload=WORKLOADS[workload], adaptive=HIT)
    scalar, vector = _pair(config)
    assert scalar == vector
    loss, messages, reconf, added, removed, rewires, ticks, triggered = GOLDEN[
        workload
    ]
    assert scalar.loss_of_fidelity == loss
    assert scalar.counters.messages == messages
    assert scalar.counters.reconfigurations == reconf
    assert scalar.counters.edges_added == added
    assert scalar.counters.edges_removed == removed
    assert scalar.counters.resubscriptions == added + removed
    assert scalar.extras["adaptive_rewires"] == rewires
    assert scalar.extras["adaptive_ticks"] == ticks
    assert scalar.extras["adaptive_triggered"] == triggered


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_miss_policy_reproduces_the_static_run(workload):
    static = run_simulation(BASE.with_(workload=WORKLOADS[workload]))
    adaptive_cfg = BASE.with_(workload=WORKLOADS[workload], adaptive=MISS)
    scalar, vector = _pair(adaptive_cfg)
    assert scalar == vector
    # The controller ticked but never fired: the run is the static run.
    assert scalar.extras["adaptive_ticks"] == 2
    assert scalar.extras["adaptive_triggered"] == 0
    assert scalar.extras["adaptive_rewires"] == 0
    assert scalar.counters.reconfigurations == 0
    assert scalar.loss_of_fidelity == static.loss_of_fidelity
    assert scalar.per_repository_loss == static.per_repository_loss
    assert scalar.counters.messages == static.counters.messages
    assert (
        scalar.counters.per_node_messages == static.counters.per_node_messages
    )


@pytest.mark.parametrize("policy", ["distributed", "centralized"])
def test_bit_identity_across_dissemination_policies(policy):
    config = BASE.with_(
        policy=policy, workload=FlashCrowdWorkload(), adaptive=HIT
    )
    scalar, vector = _pair(config)
    assert scalar == vector
    assert scalar.extras["adaptive_rewires"] > 0


def test_adaptive_sweep_is_bit_identical_serial_vs_parallel():
    configs = [
        BASE.with_(workload=WORKLOADS[workload], adaptive=policy)
        for workload in sorted(WORKLOADS)
        for policy in (HIT, MISS)
    ]
    serial = run_sweep(configs, jobs=1)
    assert run_sweep(configs, jobs=4) == serial


def test_adaptive_composes_with_message_loss():
    config = BASE.with_(
        workload=FlashCrowdWorkload(),
        adaptive=HIT,
        message_loss_probability=0.02,
    )
    scalar, vector = _pair(config)
    assert scalar == vector
    assert compare(vector, run_live(config, "inprocess")) == []
    assert scalar.counters.drops > 0
    assert scalar.counters.deliveries + scalar.counters.drops == (
        scalar.counters.messages
    )


#: Churn and adaptive rewiring composed on ``tiny``: (loss as
#: ``float.hex``, messages, resubscriptions, rewires, the run's graph
#: changes in order), recorded before the reconfiguration core became the
#: one owner of the current graph and members.
COMPOSED = {
    (1, "distributed"): ("0x1.6b9a001c39056p-1", 2847, 751, 8,
                         "rewire rewire rewire join rewire rewire rewire rewire "
                         "update rewire join depart depart update"),
    (1, "centralized"): ("0x1.20b43d935b08cp-1", 3067, 689, 8,
                         "rewire rewire rewire join rewire rewire rewire rewire "
                         "update rewire join depart depart update"),
    (201, "distributed"): ("0x1.0ba5edd14566ep+0", 1809, 582, 8,
                           "rewire rewire rewire rewire rewire rewire rewire rewire "
                           "join update join update depart depart"),
    (201, "centralized"): ("0x1.5ea0a7f318052p-1", 1829, 526, 8,
                           "rewire rewire rewire rewire rewire rewire rewire rewire "
                           "join update join update depart depart"),
}


def _graph_changes(monkeypatch):
    """Record each applied churn event's kind and each applied rewire, in
    the order the core makes them."""
    changes: list[str] = []
    apply = ReconfigurationCore.apply

    def recording(core, now, event):
        rewires = core.adaptive.rewires
        apply(core, now, event)
        if event is None:
            if core.adaptive.rewires > rewires:
                changes.append("rewire")
        elif isinstance(event, ChurnEvent):
            changes.append(event.kind)

    monkeypatch.setattr(ReconfigurationCore, "apply", recording)
    return changes


@pytest.mark.parametrize("seed, policy", sorted(COMPOSED))
def test_churn_composed_with_rewires_golden_values(seed, policy, monkeypatch):
    base = SCALE_PRESETS["tiny"].with_(
        seed=seed, policy=policy, workload=FlashCrowdWorkload()
    )
    config = base.with_(
        churn=schedule_for_config(base, joins=2, departs=2, updates=2),
        adaptive=AdaptivePolicy(window=20.0, threshold=0.3),
    )
    changes = _graph_changes(monkeypatch)
    engine = run_simulation(config)
    order = " ".join(changes)
    changes.clear()
    oracle = run_simulation(config.with_(kernel="scalar"))
    assert " ".join(changes) == order
    changes.clear()
    live = run_live(config, "inprocess")
    assert " ".join(changes) == order
    assert engine == oracle
    assert (live.counters, live.loss_of_fidelity, live.per_repository_loss) == (
        oracle.counters, oracle.loss_of_fidelity, oracle.per_repository_loss
    )
    assert live.extras["per_pair_loss"] == oracle.extras["per_pair_loss"]
    loss, messages, resubscriptions, rewires, golden_order = COMPOSED[(seed, policy)]
    assert engine.loss_of_fidelity.hex() == loss
    assert engine.counters.messages == messages
    assert engine.counters.resubscriptions == resubscriptions == (
        engine.counters.edges_added + engine.counters.edges_removed
    )
    assert engine.extras["adaptive_rewires"] == rewires
    assert order == golden_order
    # Both cross-orders: a join onto a rewired graph, and (at seed 1) a
    # rewire of a churn rebuild.
    kinds = order.split()
    assert "join" in kinds[kinds.index("rewire"):]
    rebuilt = [i for i, kind in enumerate(kinds) if kind in ("depart", "update")]
    assert ("rewire" in kinds[rebuilt[0]:]) == (seed == 1)
