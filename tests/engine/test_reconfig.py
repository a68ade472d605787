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

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.dissemination.filtering import SourceTagger
from repro.core.dynamics import DynamicMembership, ReconfigurationDiff, edges_of
from repro.core.interests import InterestProfile
from repro.core.lela import build_d3g
from repro.core.metrics import CostCounters
from repro.core.tree import DisseminationGraph
from repro.engine.churn import ChurnEvent, ChurnSchedule
from repro.engine.failures import FailureEvent, FailureSchedule
from repro.engine.reconfig import ReconfigurationCore
from repro.errors import SimulationError

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


class FakeStore:
    """A dict-backed edge store that records what it was told to do."""

    def __init__(self, graph: DisseminationGraph) -> None:
        self.ops: list[tuple] = []
        self.edges: set[tuple[int, int, int]] = set()
        self.receive_c: dict[tuple[int, int], float] = {}
        self.logs: dict[tuple[int, int], list] = {}
        self.source: dict[int, float] = {}
        self.tagger = SourceTagger()
        self.sent: dict[int, int] = {}
        for node, state in graph.nodes.items():
            for item, parent in state.parent_for.items():
                self.wire(parent, node, item, state.receive_c[item], INITIAL)
                self.logs[(node, item)] = [0.0, INITIAL]
        self.ops.clear()

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


def make_core(graph, **sources):
    store = FakeStore(graph)
    profiles = {
        node: InterestProfile(node, dict(state.own_c))
        for node, state in graph.nodes.items()
        if node != graph.source
    }
    counters = CostCounters()
    core = ReconfigurationCore(
        store, counters, graph, graph.source, profiles, **sources
    )
    return core, store, counters


def diff(added=(), removed=()):
    return ReconfigurationDiff(added=frozenset(added), removed=frozenset(removed))


def rebuilt(core, graph):
    """Make ``graph`` the core's current graph, as an applied adaptive
    re-optimization (or a churn rebuild) would."""
    core.adaptive = type("Rebuilt", (), {"graph": graph})()


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

def churn_core(*events):
    membership = DynamicMembership(
        source=0, comm_delay_ms=lambda u, v: 1.0 + abs(u - v), offered_degree=2
    )
    profiles = {r: InterestProfile(r, {0: C}) for r in (1, 2, 3)}
    for repo in (1, 2):  # 3 is a late joiner
        membership.join(profiles[repo])
    store = FakeStore(membership.graph)
    core = ReconfigurationCore(
        store, CostCounters(), membership.graph, 0, profiles,
        churn=ChurnSchedule(events=tuple(events)), membership=membership,
    )
    return core, store


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


def test_timeline_is_time_ordered_with_ticks_after_events_at_a_tie():
    class Ticker:
        graph = chain(0, 1)

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


class Reoptimizer:
    """Stands in for the adaptive controller: every tick re-runs LeLA
    over the graph's members, as the core hands them over, under a drawn
    load, and always proposes the result."""

    def __init__(self) -> None:
        self.graph = None
        self.profiles: list[InterestProfile] = []
        self.last_drifts: dict = {}
        self.load: dict[int, float] = {}

    def tick_times(self, span):
        return []

    def on_tick(self, now, message_counts):
        self.graph = build_d3g(
            self.profiles, 0, _delay, 2,
            rng=np.random.default_rng(0), node_load=self.load,
        )
        return diff()


class ComposedCore(RuleBasedStateMachine):
    """Join, depart, update, crash, recover and tick in any order; after
    each, the wiring and the owed fidelity follow from the members, the
    live set and the current graph alone."""

    @initialize(requirements=st.lists(REQUIREMENTS, min_size=5, max_size=5))
    def build(self, requirements):
        self.profiles = {
            r: InterestProfile(r, req) for r, req in zip(REPOS, requirements)
        }
        membership = DynamicMembership(source=0, comm_delay_ms=_delay, offered_degree=2)
        for repo in REPOS[:3]:  # 4 and 5 join late, if at all
            membership.join(self.profiles[repo])
        self.store = FakeStore(membership.graph)
        self.adaptive = Reoptimizer()
        self.core = ReconfigurationCore(
            self.store, CostCounters(), membership.graph, 0,
            self.profiles, membership=membership, adaptive=self.adaptive,
        )
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
        self._apply(ChurnEvent.join(self.now + 1.0, repo, requirements))
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
    max_examples=60, stateful_step_count=25, deadline=None
)
