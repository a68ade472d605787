"""The reconfiguration core, tested where it lives.

``ReconfigurationCore`` is sans-io, so these tests drive it against an
in-memory fake edge store -- no kernel, no numpy arrays, no sockets --
and assert the rules directly: the order edges are torn down and wired
in, who initial-syncs and who keeps its copy, where orphans fail over
to, what a recovery resyncs, and when the centralised tagger forgets a
tolerance.  The planes' own suites then only have to show that each
port implementation does the surgery it is told to.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.dissemination.filtering import SourceTagger, Staircase
from repro.core.dynamics import ReconfigurationDiff, edges_of
from repro.core.interests import InterestProfile
from repro.core.lela import build_d3g
from repro.core.metrics import CostCounters
from repro.core.preference import preference_p1
from repro.core.tree import DisseminationGraph
from repro.engine.churn import ChurnEvent, ChurnSchedule
from repro.engine.failures import FailureEvent, FailureSchedule
from repro.engine import reconfig
from repro.engine.reconfig import LelaInputs, ReconfigurationCore
from repro.errors import SimulationError
from repro.sim.rng import RandomStreams

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "properties"))
from example_counts import examples  # noqa: E402

C = 0.5
INITIAL = 1.0


def chain(root: int, *nodes: int, items=(0,)) -> DisseminationGraph:
    """``root -> nodes[0] -> nodes[1] -> ...`` serving every item."""
    graph = DisseminationGraph(source=root)
    parent = root
    for level, node in enumerate(nodes, start=1):
        graph.add_node(node, level, {item: C for item in items})
        for item in items:
            graph.connect(parent, node, item, C)
        parent = node
    return graph


class Item:
    """What the core reads of a trace: its initial value."""

    initial_value = INITIAL


class FakeStore:
    """A dict-backed edge store that records what it was told to do."""

    def __init__(self) -> None:
        self.ops: list[tuple] = []
        self.edges: set[tuple[int, int, int]] = set()
        self.receive_c: dict[tuple[int, int], float] = {}
        self.logs: dict[tuple[int, int], list] = {}
        self.source: dict[int, float] = {}
        self.tagger = SourceTagger()
        self.sent: dict[int, int] = {}

    def unwire(self, parent, child, item_id, c):
        self.ops.append(("unwire", parent, child, item_id))
        self.edges.remove((parent, child, item_id))
        self.tagger.remove_tolerance(item_id, c)

    def wire(self, parent, child, item_id, c, initial):
        self.ops.append(("wire", parent, child, item_id, initial))
        self.edges.add((parent, child, item_id))
        self.receive_c[(child, item_id)] = c
        self.tagger.add_tolerance(item_id, c, initial)

    def unsubscribe(self, node, item_id):
        self.ops.append(("unsubscribe", node, item_id))
        del self.receive_c[(node, item_id)]

    def log(self, node, item_id, create=False):
        if create:
            return self.logs.setdefault((node, item_id), [])
        return self.logs.get((node, item_id))

    def source_value(self, item_id):
        return self.source.get(item_id, INITIAL)

    def message_counts(self):
        return dict(self.sent)


def pairs(log):
    """A flat ``[t0, v0, t1, v1, ...]`` log as its ``(time, value)`` pairs."""
    return list(zip(log[0::2], log[1::2]))


def started(core, store):
    """Wire the core's graph into ``store`` as every plane starts a run,
    then forget those calls: ``ops`` records what comes after."""
    items = {item for state in core.graph.nodes.values() for item in state.receive_c}
    core.wire_initial({item: Item for item in sorted(items)})
    store.ops.clear()


def profiles_of(graph):
    """Each repository of ``graph`` with its own requirements."""
    return {
        node: InterestProfile(node, dict(state.own_c))
        for node, state in graph.nodes.items()
        if node != graph.source
    }


def make_core(graph, **sources):
    store = FakeStore()
    counters = CostCounters()
    core = ReconfigurationCore(
        store, counters, graph, graph.source, profiles_of(graph), **sources
    )
    started(core, store)
    return core, store, counters


def diff(added=(), removed=()):
    return ReconfigurationDiff(added=frozenset(added), removed=frozenset(removed))


def rebuilt(core, graph):
    """Make ``graph`` the core's current graph, as an applied adaptive
    re-optimization (or a churn rebuild) would."""
    core.graph = graph


# ----------------------------------------------------------------------
# wire_initial: the first d3g, in the order every plane's columns keep
# ----------------------------------------------------------------------

def test_the_first_wiring_primes_each_log_then_wires_it_in_graph_order():
    # Graph order 0, 5, 2, 4, 3; node 0 serves item 0 to 5 before 2 and
    # node 5 serves item 1 to 4 before 3: neither is id order.
    graph = DisseminationGraph(source=0)
    for node, level, own in ((5, 1, {0: C, 1: 0.25}), (2, 1, {0: C}),
                             (4, 2, {0: C, 1: 0.5}), (3, 2, {1: 0.75})):
        graph.add_node(node, level, own)
    for parent, child, item, c in ((0, 5, 0, C), (0, 5, 1, 0.25), (0, 2, 0, C),
                                   (5, 4, 0, C), (5, 4, 1, 0.5), (5, 3, 1, 0.75)):
        graph.connect(parent, child, item, c)

    class PrimedFirst(FakeStore):
        def wire(self, parent, child, item_id, c, initial):
            self.ops.append(("log", list(self.logs[(child, item_id)])))
            super().wire(parent, child, item_id, c, initial)

    store, counters = PrimedFirst(), CostCounters()
    core = ReconfigurationCore(store, counters, graph, 0, profiles_of(graph))
    one, two = (type("Trace", (), {"initial_value": v}) for v in (1.0, 2.0))
    core.wire_initial({1: two, 0: one})  # trace order, not id order
    wired = [  # (parent, child, item, c, initial), in the order expected
        (0, 5, 1, 0.25, 2.0), (5, 4, 1, 0.5, 2.0), (5, 3, 1, 0.75, 2.0),
        (0, 5, 0, C, 1.0), (0, 2, 0, C, 1.0), (5, 4, 0, C, 1.0),
    ]
    assert store.ops == [
        op
        for parent, child, item, _c, initial in wired
        for op in (("log", [0.0, initial]), ("wire", parent, child, item, initial))
    ]
    assert store.receive_c == {(child, item): c for _p, child, item, c, _i in wired}
    assert store.logs == {(child, item): [0.0, i] for _p, child, item, _c, i in wired}
    assert core.serving == {(child, item): [(1, c)] for _p, child, item, c, _i in wired}
    assert counters == CostCounters()  # the starting point, not a reconfiguration


def test_a_run_forwards_in_child_table_order_not_id_order():
    """LeLA fills each child table in join order, which is ascending id;
    reversing the source's table must reverse the FIFO departures of its
    forwards on every plane, and so move the loss."""
    from dataclasses import replace

    from repro.engine.builder import build_setup
    from repro.engine.config import SCALE_PRESETS
    from repro.engine.oracle import DisseminationSimulation
    from repro.engine.simulation import VectorizedSimulation
    from repro.live import build_live_network, run_live

    config = SCALE_PRESETS["tiny"].with_(seed=201)
    setup = build_setup(config)
    graph = copy.deepcopy(setup.graph)
    table = graph.nodes[setup.source]
    table.children = dict(reversed(table.children.items()))
    flipped = replace(setup, graph=graph)
    engine = VectorizedSimulation(flipped)
    result = engine.run()
    assert DisseminationSimulation(flipped).run() == result
    live = run_live(config, "inprocess", network=build_live_network(config, setup=flipped))
    assert (live.counters, live.loss_of_fidelity, live.extras["per_pair_loss"]) == (
        result.counters, result.loss_of_fidelity, result.extras["per_pair_loss"]
    )
    # The run's first update (the lowest item id at its first change
    # instant) leaves the idle source one computational delay apart per
    # forwarded copy, in table order.
    t0, item, value = min(
        (trace.times[j], item, trace.values[j])
        for item, trace in setup.traces.items()
        for j in [int(np.flatnonzero(np.diff(trace.values))[0]) + 1]
    )
    comp = config.comp_delay_ms / 1000.0
    latest = t0 + comp * (len(table.children) + 0.5)
    departures = [
        t - setup.network.delay_s(setup.source, child)
        for child, _c in graph.children_for_item(setup.source, item)
        for t, v in engine.delivery_log(child, item)
        if v == value and t0 < t - setup.network.delay_s(setup.source, child) < latest
    ]
    assert len(departures) >= 2
    assert departures == pytest.approx([t0 + comp * k for k in range(1, len(departures) + 1)])
    assert result.loss_of_fidelity != VectorizedSimulation(setup).run().loss_of_fidelity


# ----------------------------------------------------------------------
# apply_diff: order, initial values, bookkeeping
# ----------------------------------------------------------------------

def test_removals_run_in_tuple_order_and_additions_root_downward():
    # 0 -> 1 -> 2 -> 3, and 0 -> 4: node 2 sits at depth 2, node 3 at 3.
    graph = chain(0, 1, 2, 3)
    graph.add_node(4, 1, {0: C})
    graph.connect(0, 4, 0, C)
    core, store, counters = make_core(graph)
    core.apply_diff(
        diff(
            # Tuple order would wire (1, 3) first; depth order must not.
            added=[(1, 3, 0, C), (4, 2, 0, C)],
            removed=[(2, 3, 0, C), (1, 2, 0, C)],
        ),
        now=5.0,
    )
    assert [op[:4] for op in store.ops] == [
        ("unwire", 1, 2, 0),
        ("unwire", 2, 3, 0),
        ("wire", 4, 2, 0),
        ("wire", 1, 3, 0),
    ]
    assert core.parent_of[(2, 0)] == (4, C)
    assert core.parent_of[(3, 0)] == (1, C)
    assert (counters.reconfigurations, counters.edges_added, counters.edges_removed) == (1, 2, 2)


def test_new_subscription_syncs_parent_copy_rehomed_child_keeps_its_own():
    core, store, _ = make_core(chain(0, 1, 2))
    after = chain(0, 1, 7)  # 7 is new; 2 moves up under the source
    after.add_node(2, 1, {0: C})
    after.connect(0, 2, 0, C)
    rebuilt(core, after)
    store.logs[(1, 0)].extend((3.0, 1.8))  # the parent moved on
    store.logs[(2, 0)].extend((2.0, 1.4))  # the child lags behind it
    core.apply_diff(
        diff(added=[(1, 7, 0, C), (0, 2, 0, C)], removed=[(1, 2, 0, C)]), now=5.0
    )
    assert ("wire", 1, 7, 0, 1.8) in store.ops  # new: the parent's copy...
    assert pairs(store.logs[(7, 0)]) == [(5.0, 1.8)]  # ...initial-synced at `now`
    assert ("wire", 0, 2, 0, 1.4) in store.ops  # re-homed: its own copy
    assert store.logs[(2, 0)][-2:] == [2.0, 1.4]  # and no sync entry


def test_rejoiner_resyncs_even_though_it_still_holds_a_log():
    graph = chain(0, 1)
    core, store, _ = make_core(graph)
    store.source[0] = 2.5
    core.apply_diff(diff(removed=[(0, 1, 0, C)]), now=1.0)
    core.apply_diff(diff(added=[(0, 1, 0, C)]), now=9.0, resync=frozenset({1}))
    assert store.ops[-1] == ("wire", 0, 1, 0, 2.5)  # from the source's value
    assert pairs(store.logs[(1, 0)]) == [(0.0, INITIAL), (9.0, 2.5)]


def test_pair_dropped_by_the_rebuilt_graph_is_unsubscribed_but_keeps_its_log():
    graph = chain(0, 1, 2)
    core, store, _ = make_core(graph)
    rebuilt(core, chain(0, 1))  # node 2 no longer receives item 0 at all
    core.apply_diff(diff(removed=[(1, 2, 0, C)]), now=4.0)
    assert store.ops == [("unwire", 1, 2, 0), ("unsubscribe", 2, 0)]
    assert (2, 0) not in core.parent_of and (2, 0) not in store.receive_c
    assert pairs(store.logs[(2, 0)]) == [(0.0, INITIAL)]


def test_syncing_from_a_parent_without_a_copy_fails_loudly():
    core, _store, _ = make_core(chain(0, 1))
    rebuilt(core, chain(0, 1, 2, 3))
    with pytest.raises(SimulationError, match="no copy"):
        core.apply_diff(diff(added=[(2, 3, 0, C)]), now=1.0)


def test_tagger_keeps_a_shared_tolerance_until_its_last_edge_goes():
    graph = DisseminationGraph(source=0)
    for node, c in ((1, 0.5), (2, 0.5 + 1e-12), (3, 0.25)):
        graph.add_node(node, 1, {0: c})
        graph.connect(0, node, 0, c)
    core, store, _ = make_core(graph)
    assert store.tagger.unique_tolerances(0) == [0.25, 0.5]
    core.apply_diff(diff(removed=[(0, 1, 0, 0.5)]), now=1.0)
    assert store.tagger.unique_tolerances(0) == [0.25, 0.5]  # 0 -> 2 still serves at it
    core.apply_diff(diff(removed=[(0, 2, 0, 0.5 + 1e-12)]), now=2.0)
    assert store.tagger.unique_tolerances(0) == [0.25]


# ----------------------------------------------------------------------
# Failures: failover, resync, re-home
# ----------------------------------------------------------------------

def failure_core(graph, *events):
    schedule = FailureSchedule(tuple(events))
    core, store, counters = make_core(graph, failures=schedule)
    return core, store, counters, core.timeline(span=100.0)


def test_crash_fails_dependents_over_and_recovery_resyncs_only_what_diverged():
    graph = chain(0, 1, 2, items=(0, 1))
    core, store, counters, timeline = failure_core(
        graph, FailureEvent.crash(10.0, 1), FailureEvent.recover(20.0, 1)
    )
    core.apply(*timeline[0])
    assert core.crashed == {1}
    assert [op[:4] for op in store.ops] == [
        ("unwire", 1, 2, 0), ("unwire", 1, 2, 1), ("wire", 0, 2, 0), ("wire", 0, 2, 1),
    ]
    assert core.parent_of[(2, 0)] == (0, C) and core.home_parent[(2, 0)] == 1
    assert (0, 1, 0) in store.edges  # the crashed node stays wired: sends to it drop

    store.ops.clear()
    store.source[0] = 5.0  # item 0 moves while node 1 is down; item 1 does not
    core.apply(*timeline[1])
    assert core.crashed == set()
    assert pairs(store.logs[(1, 0)]) == [(0.0, INITIAL), (20.0, 5.0)]
    assert pairs(store.logs[(1, 1)]) == [(0.0, INITIAL)]
    assert (counters.resyncs, counters.resync_checks, counters.resync_messages) == (1, 2, 1)
    # ...and only then are the dependents wired back home, keeping their copies.
    assert store.ops == [
        ("unwire", 0, 2, 0), ("unwire", 0, 2, 1),
        ("wire", 1, 2, 0, INITIAL), ("wire", 1, 2, 1, INITIAL),
    ]
    assert core.parent_of[(2, 0)] == (1, C)
    assert counters.reconfigurations == 2
    assert core.segments[(1, 0)] == [[0.0, 10.0, C], [20.0, None, C]]
    assert core.segments[(2, 0)] == [[0.0, None, C]]
    assert core.applied == 2


def test_parent_and_grandparent_down_reach_the_nearest_live_ancestor():
    graph = chain(0, 1, 2, 3)
    core, store, _, timeline = failure_core(
        graph, FailureEvent.crash(10.0, 2), FailureEvent.crash(11.0, 1)
    )
    core.apply(*timeline[0])
    assert core.parent_of[(3, 0)] == (1, C)  # grandparent takes over
    core.apply(*timeline[1])
    assert core.parent_of[(3, 0)] == (0, C)  # then the source does
    assert core.parent_of[(2, 0)] == (0, C)  # the crashed child moves with it
    # Walks skip crashed ancestors wherever they sit in the chain.
    core.parent_of[(3, 0)] = (2, C)
    core.parent_of[(2, 0)] = (1, C)
    assert core._live_parent(3, 0) == 0


def test_whole_ancestry_down_dependents_wait_and_resync_skips():
    # The rules do not assume that a tree's root stays up: here it crashes
    # too, and the walk up from a dependent leaves the tree.
    graph = chain(5, 1, 2)
    core, store, counters, timeline = failure_core(
        graph,
        FailureEvent.crash(10.0, 5),
        FailureEvent.crash(11.0, 1),
        FailureEvent.recover(12.0, 1),
    )
    for entry in timeline:
        core.apply(*entry)
    assert store.ops == []  # nobody to fail over to, nothing to re-home
    assert core.parent_of[(2, 0)] == (1, C)
    assert counters.reconfigurations == 0
    assert counters.resyncs == 0  # no live provider: the compare round is skipped
    assert core.crashed == {5}


def test_link_events_only_toggle_the_down_set():
    core, store, counters, timeline = failure_core(
        chain(0, 1), FailureEvent.link_down(3.0, 0, 1), FailureEvent.link_up(4.0, 0, 1)
    )
    core.apply(*timeline[0])
    assert core.down_links == {(0, 1)}
    core.apply(*timeline[1])
    assert core.down_links == set() and store.ops == [] and counters.reconfigurations == 0


# ----------------------------------------------------------------------
# Churn and the control timeline
# ----------------------------------------------------------------------

def joined(lela, profiles):
    """The graph ``profiles`` make joining one by one, as a churn run's
    initial members do."""
    graph = DisseminationGraph(lela.source)
    for count, profile in enumerate(profiles, start=1):
        lela.insert(graph, profile, [p.repository for p in profiles[:count]])
    graph.validate(max_dependents=lela.budgets(p.repository for p in profiles))
    return graph


def churn_core(*events, profiles=None, degree=2, seed=0, failures=None):
    """A core over ``profiles`` (default: 1 and 2 members, 3 a late
    joiner), the members joined in id order."""
    lela = LelaInputs(0, lambda u, v: 1.0 + abs(u - v), degree, preference_p1, 5.0, seed)
    if profiles is None:
        profiles = {r: InterestProfile(r, {0: C}) for r in (1, 2, 3)}
    schedule = ChurnSchedule(events=tuple(events))
    members = schedule.initial_members(profiles)
    store = FakeStore()
    core = ReconfigurationCore(
        store, CostCounters(), joined(lela, [profiles[r] for r in members]), 0,
        profiles, churn=schedule, failures=failures, lela=lela,
    )
    started(core, store)
    return core, store


def run_churn(core):
    """Apply the core's whole timeline, each entry at its instant."""
    for entry in core.timeline(span=100.0):
        core.apply(*entry)


def test_churn_events_keep_segments_departed_set_and_edges_in_step():
    core, store = churn_core(
        ChurnEvent.join(5.0, 3), ChurnEvent.depart(10.0, 2), ChurnEvent.join(20.0, 2)
    )
    assert (3, 0) not in core.segments  # scoring starts at the join
    timeline = core.timeline(span=100.0)
    core.apply(*timeline[0])
    assert core.segments[(3, 0)] == [[5.0, None, C]]
    assert pairs(store.logs[(3, 0)]) == [(5.0, INITIAL)]
    core.apply(*timeline[1])
    assert core.departed == {2}
    assert core.segments[(2, 0)] == [[0.0, 10.0, C]]
    assert not any(child == 2 for _p, child, _i in store.edges)
    store.source[0] = 3.0
    for key in store.logs:
        if key != (2, 0):
            store.logs[key].extend((15.0, 3.0))
    core.apply(*timeline[2])
    assert core.departed == set()
    assert core.segments[(2, 0)] == [[0.0, 10.0, C], [20.0, None, C]]
    assert store.logs[(2, 0)][-2:] == [20.0, 3.0]  # fresh copy, not the stale one
    assert {(p, ch) for (ch, _i), (p, _c) in core.parent_of.items()} == {
        (p, ch) for p, ch, _i in store.edges
    }


def test_joins_insert_into_a_copy_of_the_current_graph():
    profiles = {r: InterestProfile(r, {0: 0.1 * r}) for r in (1, 2, 3, 4)}
    core, store = churn_core(
        *(ChurnEvent.join(float(r), r) for r in (2, 3, 4)), profiles=profiles
    )
    first = core.graph
    snapshot = edges_of(first)
    run_churn(core)
    assert list(core.members) == [1, 2, 3, 4]
    assert edges_of(first) == snapshot and set(first.nodes) == {0, 1}  # a value
    core.graph.validate(max_dependents=core.lela.budgets(core.members))
    assert core.graph.stats().max_depth >= 2  # degree 2 at the source
    assert core.counters.edges_removed == 0  # looser newcomers only add edges
    assert {(p, ch, it) for p, ch, it, _c in edges_of(core.graph)} == store.edges


def test_a_departure_reapplies_lela_over_the_remaining_members():
    profiles = {r: InterestProfile(r, {0: C}) for r in (1, 2, 3, 4, 5)}
    core, store = churn_core(ChurnEvent.depart(1.0, 3), profiles=profiles)
    run_churn(core)
    assert list(core.members) == [1, 2, 4, 5] and 3 not in core.graph.nodes
    plain = build_d3g([profiles[r] for r in (1, 2, 4, 5)], 0, core.lela.delay_ms,
                      2, rng=np.random.default_rng(0))
    assert edges_of(core.graph) == edges_of(plain)
    assert {(p, ch, it) for p, ch, it, _c in edges_of(plain)} == store.edges
    assert all((repo, 0) in core.parent_of for repo in core.members)


@settings(max_examples=examples(20), deadline=None)
@given(
    requirements=st.lists(
        st.dictionaries(
            st.integers(0, 3), st.floats(0.01, 0.99), min_size=1, max_size=3
        ),
        min_size=2, max_size=6,
    ),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_a_departure_rebuild_matches_fresh_lela_over_the_survivors(
    requirements, seed, data
):
    """Whoever departs, the core's rebuild is a fresh LeLA over the
    survivors in join order, and the store is wired to exactly that
    graph."""
    profiles = {r: InterestProfile(r, reqs) for r, reqs in enumerate(requirements, start=1)}
    victim = data.draw(st.sampled_from(sorted(profiles)), label="victim")
    core, store = churn_core(
        ChurnEvent.depart(1.0, victim), profiles=profiles, degree=3, seed=seed
    )
    run_churn(core)
    survivors = [r for r in profiles if r != victim]
    assert list(core.members) == survivors
    fresh = build_d3g([profiles[r] for r in survivors], 0, core.lela.delay_ms, 3,
                      rng=np.random.default_rng(seed))
    assert edges_of(core.graph) == edges_of(fresh)
    assert {(p, ch, it) for p, ch, it, _c in edges_of(fresh)} == store.edges
    fresh.validate(max_dependents=core.lela.budgets(survivors))


def test_a_rejoiner_goes_to_the_end_of_the_join_order():
    # Degree 2: the first two members sit under the source, so the order
    # a later rebuild inserts in shows in its edges.
    profiles = {r: InterestProfile(r, {0: C}) for r in (1, 2, 3)}
    core, _store = churn_core(
        ChurnEvent.depart(1.0, 1), ChurnEvent.join(2.0, 1),
        ChurnEvent.update(3.0, 2, {0: C}), profiles=profiles,
    )
    run_churn(core)
    assert list(core.members) == [2, 3, 1]
    rejoined, original = (
        edges_of(build_d3g([profiles[r] for r in order], 0, core.lela.delay_ms, 2,
                           rng=np.random.default_rng(0)))
        for order in ((2, 3, 1), (1, 2, 3))
    )
    assert edges_of(core.graph) == rejoined != original


def test_a_requirement_change_tightens_and_adds_service():
    profiles = {r: InterestProfile(r, {0: C}) for r in (1, 2)}
    core, store = churn_core(
        ChurnEvent.update(1.0, 2, {0: 0.05}),
        ChurnEvent.update(2.0, 1, {0: C, 1: 0.3}),
        profiles=profiles,
    )
    run_churn(core)
    assert core.graph.nodes[2].receive_c[0] <= 0.05
    assert store.receive_c[(2, 0)] <= 0.05
    assert core.parent_of[(1, 1)] == (0, 0.3)
    assert core.counters.resubscriptions == (
        core.counters.edges_added + core.counters.edges_removed
    ) > 0


def test_a_no_op_requirement_change_costs_no_edge():
    profiles = {1: InterestProfile(1, {0: 0.1}), 2: InterestProfile(2, {0: 0.2})}
    core, store = churn_core(ChurnEvent.update(1.0, 2, {0: 0.2}), profiles=profiles)
    run_churn(core)
    assert store.ops == []
    assert (core.counters.edges_added, core.counters.edges_removed) == (0, 0)


def test_capacity_holds_across_churn():
    profiles = {r: InterestProfile(r, {0: C}) for r in (1, 2, 3)}
    core, store = churn_core(ChurnEvent.depart(1.0, 2), profiles=profiles, degree=1)
    run_churn(core)
    for node in core.graph.nodes:
        assert core.graph.n_dependents(node) <= 1
        assert len({ch for p, ch, _it in store.edges if p == node}) <= 1


class Gate:
    """Stands in for the adaptive controller's drift gate: every tick
    lets a re-optimization through under ``load``."""

    def __init__(self, times=(10.0,)) -> None:
        self.times = list(times)
        self.load: dict[int, float] = {}
        self.last_drifts: dict = {}
        self.rewires = 0

    def tick_times(self, span):
        return self.times

    def on_tick(self, now, message_counts):
        return self.load

    def rewired(self, now):
        self.rewires += 1


def tick_core(graph, profiles):
    lela = LelaInputs(0, _delay, 2, preference_p1, 5.0, 11)
    store = FakeStore()
    core = ReconfigurationCore(
        store, CostCounters(), graph, 0, profiles, adaptive=Gate(), lela=lela
    )
    started(core, store)
    return core, store


def test_a_tick_whose_rebuild_changes_no_edge_is_not_a_rewire():
    profiles = {r: InterestProfile(r, {0: C, 1: 0.25 * r}) for r in (1, 2, 3)}
    graph = build_d3g(list(profiles.values()), 0, _delay, 2,
                      rng=RandomStreams(11).stream("lela"))
    core, store = tick_core(graph, profiles)
    core.apply(*core.timeline(span=10.0)[0])
    assert core.graph is graph
    assert store.ops == [] and core.counters == CostCounters()
    assert core.adaptive.rewires == 0


def test_a_tick_rewires_the_members_into_the_rebuilt_graph():
    graph = chain(0, 1, 2, items=(0, 1))  # LeLA puts both under the source
    core, store = tick_core(graph, profiles_of(graph))
    core.apply(*core.timeline(span=10.0)[0])
    assert core.adaptive.rewires == 1 and core.counters.reconfigurations == 1
    assert {(p, ch) for p, ch, _it in store.edges} == {(0, 1), (0, 2)}
    assert edges_of(graph) == edges_of(chain(0, 1, 2, items=(0, 1)))  # a value


def test_timeline_is_time_ordered_with_ticks_after_events_at_a_tie():
    class Ticker:
        def tick_times(self, span):
            return [10.0, 20.0]

    crash = FailureEvent.crash(10.0, 1)
    down = FailureEvent.link_down(2.0, 0, 1)
    core, _store, _ = make_core(
        chain(0, 1), failures=FailureSchedule((crash, down)), adaptive=Ticker()
    )
    assert core.timeline(span=25.0) == [
        (2.0, down), (10.0, crash), (10.0, None), (20.0, None),
    ]


# ----------------------------------------------------------------------
# Modeled clients: served every delivered entry while the pair is wired
# ----------------------------------------------------------------------

def serve_calls(core, monkeypatch, node, item=0):
    """``(values, coherency)`` per :meth:`Staircase.serve` call the
    scoring pass makes for ``node``'s clients (one client at tolerance
    1.0: any move of 0.6 or more reaches it), and the ``(checks,
    messages)`` it charged."""
    calls = []

    class Recording(Staircase):
        __slots__ = ()

        def serve(self, values, parent_receive_c):
            calls.append((list(values), parent_receive_c))
            return super().serve(values, parent_receive_c)

    monkeypatch.setattr(reconfig, "Staircase", Recording)
    core.serve_clients({(node, item): np.array([1.0])}, {item: Item})
    return calls, (core.counters.client_checks, core.counters.client_messages)


def served(core, monkeypatch, node, item=0):
    """:func:`serve_calls` flattened: ``(value, coherency)`` per log
    entry served."""
    calls, charged = serve_calls(core, monkeypatch, node, item)
    return [(value, c) for values, c in calls for value in values], charged


def test_a_recovery_resync_entry_is_scored_but_not_served(monkeypatch):
    core, store, _, timeline = failure_core(
        chain(0, 1), FailureEvent.crash(10.0, 1), FailureEvent.recover(20.0, 1)
    )
    store.logs[(1, 0)].extend((5.0, 2.0))  # delivered before the crash
    core.apply(*timeline[0])
    store.source[0] = 5.0
    core.apply(*timeline[1])  # resyncs the diverged copy
    store.logs[(1, 0)].extend((25.0, 9.0))  # delivered after the recovery
    assert pairs(store.logs[(1, 0)])[2] == (20.0, 5.0)
    assert served(core, monkeypatch, 1) == ([(2.0, C), (9.0, C)], (2, 2))


def test_a_rejoin_sync_is_not_served_nor_a_copy_logged_while_unsubscribed(monkeypatch):
    core, store, _ = make_core(chain(0, 1))
    store.logs[(1, 0)].extend((0.5, 2.0))
    core.apply_diff(diff(removed=[(0, 1, 0, C)]), now=1.0)
    store.logs[(1, 0)].extend((2.0, 3.0))  # was in flight at the unsubscribe
    store.source[0] = 2.5
    core.apply_diff(diff(added=[(0, 1, 0, C)]), now=9.0, resync=frozenset({1}))
    store.logs[(1, 0)].extend((10.0, 7.0))
    assert pairs(store.logs[(1, 0)])[2:4] == [(2.0, 3.0), (9.0, 2.5)]
    assert served(core, monkeypatch, 1) == ([(2.0, C), (7.0, C)], (2, 2))


def test_each_wired_segment_is_served_in_one_call(monkeypatch):
    core, store, _ = make_core(chain(0, 1))
    store.logs[(1, 0)].extend((0.5, 2.0, 0.8, 3.0))
    core.apply_diff(diff(removed=[(0, 1, 0, C)]), now=1.0)
    store.logs[(1, 0)].extend((2.0, 4.0))  # was in flight at the unsubscribe
    core.apply_diff(diff(added=[(0, 1, 0, C)]), now=9.0, resync=frozenset({1}))
    store.logs[(1, 0)].extend((10.0, 7.0, 11.0, 7.5))
    # One call per wired segment, never one per value; the resync entry
    # at 9.0 opens the second segment and is not served.
    assert serve_calls(core, monkeypatch, 1) == (
        [([2.0, 3.0], C), ([7.0, 7.5], C)], (4, 3)
    )


def test_a_new_subscription_is_served_after_its_initial_sync(monkeypatch):
    core, store, _ = make_core(chain(0, 1))
    rebuilt(core, chain(0, 1, 7))
    store.logs[(1, 0)].extend((3.0, 1.8))
    core.apply_diff(diff(added=[(1, 7, 0, C)]), now=5.0)
    store.logs[(7, 0)].extend((6.0, 4.0))
    assert pairs(store.logs[(7, 0)]) == [(5.0, 1.8), (6.0, 4.0)]
    # 1.8 (the sync) would have moved the client; 4.0 is checked from 1.0.
    assert served(core, monkeypatch, 7) == ([(4.0, C)], (1, 1))


def test_clients_are_served_at_the_coherency_of_the_edge_that_wires_the_pair(
    monkeypatch,
):
    core, store, _ = make_core(chain(0, 1, 2))
    store.logs[(2, 0)].extend((1.0, 2.0))
    core.apply_diff(  # re-homed under the source, at a new coherency
        diff(added=[(0, 2, 0, 0.25)], removed=[(1, 2, 0, C)]), now=2.0
    )
    store.logs[(2, 0)].extend((3.0, 2.0, 4.0, 4.0))
    # 2.0 again: no move, checked and not sent.
    assert served(core, monkeypatch, 2) == (
        [(2.0, C), (2.0, 0.25), (4.0, 0.25)], (3, 2)
    )


# ----------------------------------------------------------------------
# Ownership: the plane owns its core, never the reverse
# ----------------------------------------------------------------------

def test_a_finished_plane_is_freed_without_a_collector_pass():
    """A store <-> core cycle would park every finished run (arrays,
    logs and all) until the next gen-2 collection, which a sweep's peak
    RSS pays for; the core therefore holds its store weakly."""
    import gc
    import weakref

    from repro.engine.builder import build_setup
    from repro.engine.config import SCALE_PRESETS
    from repro.engine.oracle import DisseminationSimulation
    from repro.engine.simulation import VectorizedSimulation
    from repro.live import build_live_network

    config = SCALE_PRESETS["tiny"].with_(n_items=2, trace_samples=50)
    setup = build_setup(config)
    gc.disable()
    try:
        for make in (
            lambda: DisseminationSimulation(setup),
            lambda: VectorizedSimulation(setup),
            lambda: build_live_network(config, setup=setup),
        ):
            plane = make()
            ref = weakref.ref(plane)
            del plane
            assert ref() is None
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# Composition: churn, failures and rewires interleaved (stateful)
# ----------------------------------------------------------------------

REPOS = (1, 2, 3, 4, 5)
ITEMS = (0, 1)
REQUIREMENTS = st.dictionaries(
    st.sampled_from(ITEMS), st.sampled_from((0.1, 0.25, 0.5, 1.0)), min_size=1
)


def _delay(u: int, v: int) -> float:
    return 1.0 + (3 * u + 7 * v) % 5


class ComposedCore(RuleBasedStateMachine):
    """Join, depart, update, crash, recover and tick in any order; after
    each, the wiring and the owed fidelity follow from the members, the
    live set and the current graph alone."""

    @initialize(requirements=st.lists(REQUIREMENTS, min_size=5, max_size=5))
    def build(self, requirements):
        self.profiles = {
            r: InterestProfile(r, req) for r, req in zip(REPOS, requirements)
        }
        lela = LelaInputs(0, _delay, 2, preference_p1, 5.0, 0)
        # 4 and 5 join late, if at all.
        graph = joined(lela, [self.profiles[r] for r in REPOS[:3]])
        self.store = FakeStore()
        self.adaptive = Gate(times=())
        self.core = ReconfigurationCore(
            self.store, CostCounters(), graph, 0,
            self.profiles, adaptive=self.adaptive, lela=lela,
        )
        started(self.core, self.store)
        self.members = {r: self.profiles[r] for r in REPOS[:3]}
        self.crashed: set[int] = set()
        self.now = 0.0

    def _apply(self, event) -> None:
        self.now += 1.0
        for item in ITEMS:  # the source moves on between control instants
            self.store.source[item] = self.now
        self.core.apply(self.now, event)

    @precondition(lambda self: len(self.members) < len(REPOS))
    @rule(data=st.data(), requirements=st.none() | REQUIREMENTS)
    def join(self, data, requirements):
        repo = data.draw(st.sampled_from(sorted(set(REPOS) - set(self.members))))
        before = self.core.graph
        snapshot = edges_of(before), copy.deepcopy(before.levels)
        self._apply(ChurnEvent.join(self.now + 1.0, repo, requirements))
        # A join inserts into a copy: the graph it started from is a value.
        assert (edges_of(before), before.levels) == snapshot
        self.members[repo] = (
            self.profiles[repo]
            if requirements is None
            else InterestProfile(repo, requirements)
        )

    @precondition(lambda self: len(self.members) > 1)
    @rule(data=st.data())
    def depart(self, data):
        repo = data.draw(st.sampled_from(sorted(self.members)))
        self._apply(ChurnEvent.depart(self.now + 1.0, repo))
        del self.members[repo]
        self._assert_plain_lela()

    @precondition(lambda self: self.members)
    @rule(data=st.data(), requirements=REQUIREMENTS)
    def update(self, data, requirements):
        repo = data.draw(st.sampled_from(sorted(self.members)))
        self._apply(ChurnEvent.update(self.now + 1.0, repo, requirements))
        self.members[repo] = InterestProfile(repo, requirements)
        self._assert_plain_lela()

    def _assert_plain_lela(self):
        # A departure or an update re-runs plain LeLA over the members in
        # join order: whatever an earlier tick chose under load is gone.
        plain = build_d3g(
            list(self.members.values()), 0, _delay, 2, rng=np.random.default_rng(0)
        )
        assert edges_of(self.core.graph) == edges_of(plain)

    @rule(repo=st.sampled_from(REPOS))
    def crash(self, repo):
        if repo not in self.crashed:
            self._apply(FailureEvent.crash(self.now + 1.0, repo))
            self.crashed.add(repo)

    @precondition(lambda self: self.crashed)
    @rule(data=st.data())
    def recover(self, data):
        repo = data.draw(st.sampled_from(sorted(self.crashed)))
        self._apply(FailureEvent.recover(self.now + 1.0, repo))
        self.crashed.discard(repo)

    @rule(load=st.dictionaries(st.sampled_from(REPOS), st.floats(0.0, 4.0)))
    def tick(self, load):
        self.adaptive.load = load
        self._apply(None)

    @invariant()
    def wiring_follows_members_liveness_and_eq1(self):
        if not hasattr(self, "core"):
            return
        core, store = self.core, self.store
        assert {(p, ch, it) for (ch, it), (p, _c) in core.parent_of.items()} == store.edges
        for parent, child, item in store.edges:
            assert child in self.members
            assert parent == 0 or parent in self.members
            assert parent not in core.departed
            if parent in self.crashed:
                ancestor = core.home_parent.get((child, item))
                while ancestor is not None:
                    assert ancestor in self.crashed
                    ancestor = core.home_parent.get((ancestor, item))
            if parent != 0:  # Eq. (1): the parent is at least as stringent
                assert store.receive_c[(parent, item)] <= store.receive_c[(child, item)]
        for repo, profile in self.members.items():
            for item, c in profile.requirements.items():
                assert store.receive_c[(repo, item)] <= c

    @invariant()
    def open_segments_are_exactly_the_owed_pairs(self):
        if not hasattr(self, "core"):
            return
        open_spans = {
            key: spans[-1][2]
            for key, spans in self.core.segments.items()
            if spans[-1][1] is None
        }
        assert open_spans == {
            (repo, item): c
            for repo, profile in self.members.items()
            if repo not in self.crashed
            for item, c in profile.requirements.items()
        }
        for spans in self.core.segments.values():
            assert all(end is not None and start <= end for start, end, _c in spans[:-1])


TestComposedCore = ComposedCore.TestCase
TestComposedCore.settings = settings(
    max_examples=examples(60), stateful_step_count=25, deadline=None
)
