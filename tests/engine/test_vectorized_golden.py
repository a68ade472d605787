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

import collections
import dataclasses
import heapq

import numpy as np
import pytest

import repro.engine.simulation as vectorized_module
from repro.core.dissemination.filtering import (
    FILTERED_POLICIES,
    FORWARD_RULES,
    StaircaseTagger,
    quantise_tolerance,
)
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
from repro.experiments.live_crosscheck import compare
from repro.live.harness import build_live_network, run_live
from repro.obs.trace import TraceRecorder
from repro.sim.kernel import BatchKernel
from repro.workloads import DiurnalWorkload, FlashCrowdWorkload, Table1Workload

BASE = SCALE_PRESETS["tiny"].with_(n_items=3, trace_samples=300)

WORKLOADS = {
    "table1": Table1Workload(),
    "flash_crowd": FlashCrowdWorkload(),
    "diurnal": DiurnalWorkload(),
}


def _inprocess_agrees(config, sim, setup=None) -> None:
    """The in-process live plane reproduces ``sim`` field for field (the
    plane table's comparison), on ``setup`` when one is given."""
    network = build_live_network(config, setup=setup)
    assert compare(sim, run_live(config, network=network)) == []


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
    _inprocess_agrees(config, vector)
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
    _inprocess_agrees(config, vector)
    assert vector.counters.reconfigurations == 6
    assert vector.counters.drops > 0


@pytest.mark.parametrize("delay", [float("nan"), -1e9])
def test_the_inline_heap_push_keeps_the_kernels_guard(delay):
    """The loop pushes onto its own heap with ``heappush``, so
    ``BatchKernel.push``'s NaN/past check is its own."""
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
    _inprocess_agrees(config, vector)
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
    _inprocess_agrees(config, vector)
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
    _inprocess_agrees(config, vector)
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
@pytest.mark.parametrize("policy", ["distributed", "centralized"])
def test_runs_that_can_move_or_watch_a_pair_keep_the_heap_path(
    monkeypatch, policy, kind
):
    """A control timeline or an observer sends every delivery through
    the heap, as before: result, logs and spans equal the oracle's --
    under the centralised policy too, whose source tags each control
    segment's updates when the segment begins, and, observed, reports
    the quiet ones as well."""
    config = _excluded(kind).with_(policy=policy)
    recorder = TraceRecorder(policy=config.policy) if kind == "observer" else None
    sim, vector, pushed = _counted_run(monkeypatch, config, observer=recorder)
    # Every message that entered the network was pushed (the in-flight
    # drops of a crash or departure were pushed too).
    assert pushed >= vector.counters.deliveries > 0

    oracle_recorder = TraceRecorder(policy=config.policy)
    oracle = DisseminationSimulation(build_setup(config), observer=oracle_recorder)
    assert vector == oracle.run()
    assert _logs(sim) == _logs(oracle)
    _inprocess_agrees(config, vector)

    if recorder is None:  # the same run's spans, observed on the batch engine
        recorder = TraceRecorder(policy=config.policy)
        run_simulation(config.with_(kernel="vectorized"), observer=recorder)
    assert _span_multiset(recorder) == _span_multiset(oracle_recorder)


def test_a_join_at_an_update_instant_is_tagged_after_it_applies():
    """A control entry at ``t`` applies before the source update at
    ``t``, which opens the next tagging segment.  A quiet update of the
    static run meets a late joiner at its very instant, needing the item
    at a tolerance tighter than any other: the update violates the new
    tolerance, so it disseminates -- on the oracle and on the engine,
    observed or not."""
    config = BASE.with_(policy="centralized")
    static = TraceRecorder(policy=config.policy)
    run_simulation(config, observer=static)
    quiet = next(
        ev for ev in static.events
        if ev.kind == "source" and not ev.forwarded and ev.time > 100.0
    )
    joiner = max(build_setup(config).profiles)
    config = config.with_(
        churn=ChurnSchedule(
            events=(ChurnEvent.join(quiet.time, joiner, {quiet.item_id: 0.001}),)
        )
    )
    oracle_recorder = TraceRecorder(policy=config.policy)
    oracle = DisseminationSimulation(build_setup(config), observer=oracle_recorder)
    expected = oracle.run()
    (source_span,) = [
        ev for ev in oracle_recorder.events
        if ev.kind == "source" and ev.update_id == quiet.update_id
    ]
    assert source_span.time == quiet.time and source_span.forwarded
    engine = VectorizedSimulation(build_setup(config))
    assert engine.run() == expected
    assert _logs(engine) == _logs(oracle)
    recorder = TraceRecorder(policy=config.policy)
    assert run_simulation(config, observer=recorder) == expected
    assert _span_multiset(recorder) == _span_multiset(oracle_recorder)


def test_the_static_unobserved_run_is_the_one_that_lands(monkeypatch):
    """The same config as the excluded kinds, with nothing attached."""
    _sim, vector, pushed = _counted_run(monkeypatch, _excluded("static"))
    assert 0 < pushed < vector.counters.deliveries


# ----------------------------------------------------------------------
# The loop owns its timeline and decides each dependent inline.
# ----------------------------------------------------------------------


def test_a_static_unobserved_run_calls_no_rule_and_no_kernel_drain(monkeypatch):
    """The engine merges its own timeline and tests each dependent
    inline; only an observed run calls the policy's rule (to cross-check
    the inline test span by span)."""
    calls = []

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)

        return wrapper

    for policy, rule in list(FORWARD_RULES.items()):
        monkeypatch.setitem(FORWARD_RULES, policy, counting(policy, rule))
    monkeypatch.setattr(BatchKernel, "drain", counting("drain", BatchKernel.drain))
    for policy in sorted(FILTERED_POLICIES):
        config = BASE.with_(policy=policy, message_loss_probability=0.02)
        result = VectorizedSimulation(build_setup(config)).run()
        assert result.counters.deliveries > 0
        assert calls == []
    # The wrappers are live: an observed run reaches the rule through them.
    VectorizedSimulation(build_setup(BASE), observer=TraceRecorder()).run()
    assert set(calls) == {BASE.policy}

    # The centralised source tags each item's updates in one pass per
    # control segment, never one per update.
    passes = []
    tag = StaircaseTagger.tag

    def counted_tag(self, item_id, values):
        passes.append((item_id, len(values)))
        return tag(self, item_id, values)

    monkeypatch.setattr(StaircaseTagger, "tag", counted_tag)
    config = BASE.with_(policy="centralized", message_loss_probability=0.02)
    churned = config.with_(
        churn=schedule_for_config(config, joins=1, departs=1, updates=1)
    )
    for run in (config, churned):
        passes.clear()
        sim = VectorizedSimulation(build_setup(run))
        sim.run()
        items = sim.setup.update_schedule.item_ids.tolist()
        assert sum(n for _item, n in passes) == len(items)  # each update once
        segments = sim._reconfig.applied + 1
        assert len(passes) <= len(set(items)) * segments < len(items)
        if run is config:
            assert sorted(item for item, _n in passes) == sorted(set(items))


def test_the_engine_keeps_the_schedules_time_sorted_guard():
    sim = VectorizedSimulation(build_setup(BASE))
    times = sim.setup.update_schedule.times
    sim.setup = dataclasses.replace(
        sim.setup,
        update_schedule=dataclasses.replace(
            sim.setup.update_schedule, times=times[::-1].copy()
        ),
    )
    with pytest.raises(SimulationError, match="time-sorted"):
        sim.run()


@pytest.mark.parametrize("policy", sorted(FILTERED_POLICIES))
def test_ties_between_updates_and_deliveries_follow_the_oracle(policy):
    """No computational delay and one whole second on every path: source
    updates fall on whole seconds too, so deliveries land on update
    instants and on each other.  The engine's merge must break those ties
    as the oracle's queue does -- source update first, then push order.
    The order shows through each link's loss stream: each message that
    enters a link takes that link's next draw, in its sender's order."""
    config = BASE.with_(
        policy=policy, comp_delay_ms=0.0, message_loss_probability=0.1, seed=11
    )
    setup = build_setup(config)
    dist_ms = setup.network.routing.dist_ms
    dist_ms[:] = 1000.0
    np.fill_diagonal(dist_ms, 0.0)
    engine = VectorizedSimulation(setup)
    oracle = DisseminationSimulation(setup)
    result = engine.run()
    assert result == oracle.run()
    assert _logs(engine) == _logs(oracle)
    _inprocess_agrees(config, result, setup)

    arrivals = collections.Counter(
        t for key in oracle._deliveries for t, _value in oracle.delivery_log(*key)
    )
    updates = set(setup.update_schedule.times.tolist())
    assert any(t in updates for t in arrivals)  # a delivery meets an update
    assert max(arrivals.values()) > 1  # and deliveries meet each other
