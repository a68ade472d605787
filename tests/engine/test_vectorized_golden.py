"""Golden-seed bit-identity: vectorized kernel vs the scalar oracle.

The vectorized kernel is a pure performance refactor.  These tests pin
that claim: for every supported policy, workload, and execution mode
(serial and multi-process sweeps) the scalar and vectorized kernels
produce *identical* ``SimulationResult`` objects -- loss of fidelity,
per-repository losses, every message/check counter (including per-node
breakdowns and client-plane totals), and the event count.

``SimulationResult`` equality is full dataclass equality, so a single
``==`` covers all of those fields at float bit-exactness.
"""

from __future__ import annotations

import heapq

import pytest

import repro.engine.simulation as vectorized_module
from repro.core.dissemination.filtering import FILTERED_POLICIES, quantise_tolerance
from repro.engine.adaptive import AdaptivePolicy
from repro.engine.builder import build_setup
from repro.engine.churn import ChurnEvent, ChurnSchedule, schedule_for_config
from repro.engine.config import SCALE_PRESETS
from repro.engine.failures import FailureEvent, FailureSchedule
from repro.engine.oracle import DisseminationSimulation
from repro.engine.simulation import (
    VectorizedSimulation,
    make_simulation,
    run_simulation,
)
from repro.engine.sweep import run_sweep
from repro.errors import SimulationError
from repro.obs.trace import TraceRecorder
from repro.workloads import DiurnalWorkload, FlashCrowdWorkload, Table1Workload

BASE = SCALE_PRESETS["tiny"].with_(n_items=3, trace_samples=300)

WORKLOADS = {
    "table1": Table1Workload(),
    "flash_crowd": FlashCrowdWorkload(),
    "diurnal": DiurnalWorkload(),
}


def _pair(config):
    """Run the same config under both kernels and return both results."""
    scalar = run_simulation(config.with_(kernel="scalar"))
    vector = run_simulation(config.with_(kernel="vectorized"))
    return scalar, vector


@pytest.mark.parametrize("policy", sorted(FILTERED_POLICIES))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_scalar_and_vectorized_results_are_bit_identical(policy, workload):
    config = BASE.with_(policy=policy, workload=WORKLOADS[workload])
    scalar, vector = _pair(config)
    assert scalar == vector


@pytest.mark.parametrize("policy", sorted(FILTERED_POLICIES))
def test_bit_identity_with_message_loss_and_clients(policy):
    config = BASE.with_(
        policy=policy,
        message_loss_probability=0.02,
        seed=3913,
        clients_per_repository=50,
    )
    scalar, vector = _pair(config)
    assert scalar == vector
    # The client plane actually exercised something.
    assert scalar.counters.client_checks > 0


def test_bit_identity_under_parallel_sweep():
    """``--jobs 4`` sweeps dispatch through the same kernel selection."""
    configs = [
        BASE.with_(policy=policy, workload=WORKLOADS[workload])
        for policy in sorted(FILTERED_POLICIES)
        for workload in ("flash_crowd", "diurnal")
    ]
    scalar_cfgs = [c.with_(kernel="scalar") for c in configs]
    vector_cfgs = [c.with_(kernel="vectorized") for c in configs]
    serial = run_sweep(scalar_cfgs, jobs=1)
    assert run_sweep(vector_cfgs, jobs=1) == serial
    assert run_sweep(vector_cfgs, jobs=4) == serial


def test_auto_selects_vectorized_when_supported():
    setup = build_setup(BASE.with_(kernel="auto"))
    sim = make_simulation(setup)
    assert type(sim) is VectorizedSimulation


def test_auto_picks_vectorized_under_churn_and_equals_scalar():
    schedule = ChurnSchedule(events=(ChurnEvent.depart(40.0, 1),))
    config = BASE.with_(kernel="auto", churn=schedule)
    sim = make_simulation(build_setup(config))
    assert type(sim) is VectorizedSimulation
    assert sim.run() == run_simulation(config.with_(kernel="scalar"))


def test_vectorized_kernel_runs_churn_setups_like_the_oracle():
    schedule = ChurnSchedule(
        events=(ChurnEvent.depart(40.0, 1), ChurnEvent.join(90.0, 1))
    )
    setup = build_setup(BASE.with_(churn=schedule, clients_per_repository=10))
    result = VectorizedSimulation(setup).run()
    assert result == DisseminationSimulation(setup).run()
    assert result.counters.reconfigurations == 2


def test_centralised_churn_under_loss_equals_the_oracle():
    """The policy that keeps no last-sent state meets rewires (the
    tagger's tolerance counts move) and the per-message loss draw."""
    config = BASE.with_(policy="centralized", message_loss_probability=0.05)
    config = config.with_(
        churn=schedule_for_config(config, joins=2, departs=2, updates=2)
    )
    scalar, vector = _pair(config)
    assert scalar == vector
    assert vector.counters.reconfigurations == 6
    assert vector.counters.drops > 0


@pytest.mark.parametrize("delay", [float("nan"), -1e9])
def test_the_inline_heap_push_keeps_the_kernels_guard(delay):
    """The drain loop enqueues with ``heappush(kernel.heap, ...)``
    directly, so ``BatchKernel.push``'s NaN/past check is its own."""
    sim = VectorizedSimulation(build_setup(BASE))
    delays = sim._g_delay[sim._root_gid[0]]
    assert delays  # item 0's source group has dependents to send to
    delays[:] = [delay] * len(delays)
    with pytest.raises(SimulationError, match="cannot schedule"):
        sim.run()


def test_shared_setup_reuse_is_stateless():
    """One built setup can back many runs without cross-contamination."""
    setup = build_setup(BASE.with_(clients_per_repository=25))
    first = VectorizedSimulation(setup).run()
    second = VectorizedSimulation(setup).run()
    oracle = DisseminationSimulation(setup).run()
    assert first == second == oracle


@pytest.mark.parametrize("policy", sorted(FILTERED_POLICIES))
def test_bit_identity_on_a_wide_group_with_partition_before_loss(policy):
    """No cooperation: the source's edge group holds every interested
    repository, so one cohort is >= 15 wide -- and some of it crosses a
    down link, which must drop before the loss stream is drawn."""
    failures = FailureSchedule(
        (
            FailureEvent.link_down(30.0, 0, 2),
            FailureEvent.link_down(30.0, 0, 7),
            FailureEvent.link_up(200.0, 0, 2),
        )
    )
    config = BASE.with_(
        policy=policy,
        offered_degree=BASE.n_repositories,
        subscription_probability=0.9,
        message_loss_probability=0.05,
        failures=failures,
        seed=77,
    )
    vectorized = VectorizedSimulation(build_setup(config))
    assert max(len(cs) for cs in vectorized._g_cs) >= 15
    vector = vectorized.run()
    assert vector == run_simulation(config.with_(kernel="scalar"))
    assert vector.counters.drops > 0


def test_wire_unwire_wire_keeps_the_four_columns_aligned():
    sim = VectorizedSimulation(build_setup(BASE.with_(policy="centralized")))
    graph = sim.setup.graph
    parent, item_id, children = next(
        (node, item, graph.children_for_item(node, item))
        for node in graph.nodes
        for item in sim.setup.traces
        if graph.children_for_item(node, item)
    )
    gid = sim._gid_of[(parent, item_id)]

    def rows():
        """The group's dependents, one (child gid, c, last, delay) each;
        strict: columns of unequal length fail the zip."""
        return list(
            zip(sim._g_child_gid[gid], sim._g_cs[gid], sim._g_last[gid],
                sim._g_delay[gid], strict=True)
        )

    before = rows()
    child, c = children[0]
    absent = next(
        node for node, item in sim._gid_of
        if item == item_id and node != parent and node not in dict(children)
    )

    with pytest.raises(SimulationError, match="holds no dependent"):
        sim.unwire(parent, absent, item_id, c)
    assert rows() == before

    sim.wire(parent, absent, item_id, c, initial=1.5)
    sim.unwire(parent, child, item_id, c)
    sim.wire(parent, child, item_id, c, initial=2.5)

    child_gid, served_c, _last, delay = before[0]
    assert rows() == before[1:] + [
        (sim._gid_of[(absent, item_id)], quantise_tolerance(c), 1.5,
         sim.setup.network.delay_s(parent, absent)),
        (child_gid, served_c, 2.5, delay),
    ]


@pytest.mark.parametrize("policy", ["centralized", "distributed"])
def test_wide_client_blocks_meet_reconfiguration(policy):
    """Client blocks >= 200 wide (the staircase's regime, not the 10-50
    of the tests above) under churn and loss: the repository drops two
    of its items at the first update event and is re-wired for them as a
    relay later, so its blocks' last-served runs must survive
    ``unsubscribe`` -> ``wire``; ``centralized`` adds the staircase
    tagger meeting the same rewires."""
    config = BASE.with_(
        policy=policy,
        message_loss_probability=0.05,
        clients_per_repository=600,
        seed=17,
    )
    config = config.with_(
        churn=schedule_for_config(config, joins=2, departs=2, updates=2)
    )
    setup = build_setup(config)
    calls = []

    class Recording(VectorizedSimulation):
        def unsubscribe(self, node, item_id):
            calls.append(("unsubscribe", (node, item_id)))
            super().unsubscribe(node, item_id)

        def wire(self, parent, child, item_id, c, initial):
            calls.append(("wire", (child, item_id)))
            super().wire(parent, child, item_id, c, initial)

    vector = Recording(setup).run()
    assert vector == DisseminationSimulation(setup).run()
    assert vector.counters.client_messages > 0
    assert vector.counters.reconfigurations == 6

    unsubscribed, rewired = set(), set()
    for call, pair in calls:
        if call == "unsubscribe":
            unsubscribed.add(pair)
        elif pair in unsubscribed:
            rewired.add(pair)
    widths = [len(setup.client_tolerances.get(pair, ())) for pair in rewired]
    assert widths and max(widths) >= 200


# ----------------------------------------------------------------------
# Leaf landings: a copy sent to a pair with no dependents is applied at
# the push site in a static, unobserved run, and on the heap otherwise.
# ----------------------------------------------------------------------


def _counted_run(monkeypatch, config, observer=None):
    """Run ``config`` on the batch engine; return the simulation, its
    result and how many tuples it pushed onto the heap."""
    pushed = []

    def counting_heappush(heap, item):
        pushed.append(item)
        heapq.heappush(heap, item)

    monkeypatch.setattr(vectorized_module, "heappush", counting_heappush)
    sim = VectorizedSimulation(build_setup(config), observer=observer)
    return sim, sim.run(), len(pushed)


def _logs(sim):
    return {key: sim.delivery_log(*key) for key in sim._deliveries}


@pytest.mark.parametrize("loss", [0.0, 0.05])
@pytest.mark.parametrize("shape", ["all_leaf", "chain"])
def test_all_leaf_and_chain_shapes_match_the_oracle_log_by_log(
    monkeypatch, shape, loss
):
    """The two ends of the landing share: with no cooperation every
    repository hangs off the source and the heap is never used; at
    degree 1 the d3g is per-item chains and only their tails land."""
    degree = BASE.n_repositories if shape == "all_leaf" else 1
    config = BASE.with_(
        offered_degree=degree,
        message_loss_probability=loss,
        clients_per_repository=20,
        seed=3913,
    )
    sim, vector, pushed = _counted_run(monkeypatch, config)
    oracle = DisseminationSimulation(build_setup(config))
    assert vector == oracle.run()
    assert _logs(sim) == _logs(oracle)
    assert vector.counters.deliveries > 0
    assert (vector.counters.drops > 0) == (loss > 0.0)
    if shape == "all_leaf":
        assert pushed == 0
    else:
        assert 0 < pushed < vector.counters.deliveries


def _span_multiset(recorder):
    return sorted(
        (ev.kind, ev.update_id, ev.item_id, ev.time, ev.node, ev.dst,
         ev.forwarded, ev.reason or "")
        for ev in recorder.events
    )


def _excluded(kind):
    """A lossy config of the named run kind; any other name is the
    plain static run."""
    config = BASE.with_(message_loss_probability=0.02, seed=7)
    if kind == "churn":
        return config.with_(
            churn=schedule_for_config(config, joins=1, departs=1, updates=1)
        )
    if kind == "failures":
        return config.with_(
            failures=FailureSchedule((FailureEvent.link_down(30.0, 0, 2),))
        )
    if kind == "adaptive":
        # Never crosses the threshold: the ticks alone are a timeline.
        return config.with_(adaptive=AdaptivePolicy(window=100.0, threshold=0.75))
    return config


@pytest.mark.parametrize("kind", ["observer", "churn", "failures", "adaptive"])
def test_runs_that_can_move_or_watch_a_pair_keep_the_heap_path(monkeypatch, kind):
    """A control timeline or an observer sends every delivery through
    the heap, as before: result, logs and spans equal the oracle's."""
    config = _excluded(kind)
    recorder = TraceRecorder(policy=config.policy) if kind == "observer" else None
    sim, vector, pushed = _counted_run(monkeypatch, config, observer=recorder)
    # Every message that entered the network was pushed (the in-flight
    # drops of a crash or departure were pushed too).
    assert pushed >= vector.counters.deliveries > 0

    oracle_recorder = TraceRecorder(policy=config.policy)
    oracle = DisseminationSimulation(build_setup(config), observer=oracle_recorder)
    assert vector == oracle.run()
    assert _logs(sim) == _logs(oracle)

    if recorder is None:  # the same run's spans, observed on the batch engine
        recorder = TraceRecorder(policy=config.policy)
        run_simulation(config.with_(kernel="vectorized"), observer=recorder)
    assert _span_multiset(recorder) == _span_multiset(oracle_recorder)


def test_the_static_unobserved_run_is_the_one_that_lands(monkeypatch):
    """The same config as the excluded kinds, with nothing attached."""
    _sim, vector, pushed = _counted_run(monkeypatch, _excluded("static"))
    assert 0 < pushed < vector.counters.deliveries
