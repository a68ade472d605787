"""Property-based tests for the churn LeLA calls and ReconfigurationDiff.

The reconfiguration core makes two LeLA calls for churn
(:class:`~repro.engine.reconfig.LelaInputs`): a join inserts into the
current graph, a departure or a requirement change rebuilds over the
members in join order.  Three contracts of those calls:

- a no-op requirement change costs nothing: rebuilding the joined
  members in join order reproduces the joined graph edge for edge;
- ``diff.cost == len(added) + len(removed)``, with ``added`` and
  ``removed`` disjoint, for every step of a join / update / departure
  sequence (the reconfiguration-cost accounting the core charges);
- both calls are deterministic: the same seed and the same operation
  sequence always produce the same edge set, whatever the seed's value.
"""

from __future__ import annotations

import copy

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from example_counts import examples
from repro.core.dynamics import ReconfigurationDiff, edges_of
from repro.core.interests import InterestProfile
from repro.core.preference import preference_p1
from repro.core.tree import DisseminationGraph
from repro.engine.reconfig import LelaInputs


def flat_delay(u, v):
    return 0.0 if u == v else 10.0


_tolerance = st.floats(
    min_value=0.01, max_value=0.99, allow_nan=False, allow_infinity=False
)

_requirements = st.dictionaries(
    keys=st.integers(min_value=0, max_value=4),
    values=_tolerance,
    min_size=1,
    max_size=4,
)

_profiles = st.lists(_requirements, min_size=1, max_size=6).map(
    lambda reqs: [
        InterestProfile(repository=i + 1, requirements=r)
        for i, r in enumerate(reqs)
    ]
)

_seed = st.integers(min_value=0, max_value=2**16)


def _joined(profiles, seed):
    """``(lela, [graph after each join])``: the profiles join one by one
    into copies, as mid-run joins do."""
    lela = LelaInputs(0, flat_delay, 3, preference_p1, 5.0, seed)
    graph = DisseminationGraph(0)
    graphs = []
    for count, profile in enumerate(profiles, start=1):
        members = [p.repository for p in profiles[:count]]
        graph = copy.deepcopy(graph)
        lela.insert(graph, profile, members)
        graph.validate(max_dependents=lela.budgets(members))
        graphs.append(graph)
    return lela, graphs


def _rebuild(lela, profiles):
    return lela.build(profiles, np.random.default_rng(lela.seed))


def _diff(before, after) -> ReconfigurationDiff:
    a, b = edges_of(before), edges_of(after)
    return ReconfigurationDiff(added=b - a, removed=a - b)


@given(profiles=_profiles, seed=_seed)
@settings(max_examples=examples(30), deadline=None)
def test_noop_update_diff_is_empty(profiles, seed):
    """Reapplying LeLA to the unchanged members diffs to nothing."""
    lela, graphs = _joined(profiles, seed)
    diff = _diff(graphs[-1], _rebuild(lela, profiles))
    assert diff.added == frozenset() and diff.removed == frozenset()
    assert diff.cost == 0


@given(profiles=_profiles, seed=_seed, new_c=_tolerance)
@settings(max_examples=examples(30), deadline=None)
def test_cost_is_added_plus_removed(profiles, seed, new_c):
    """Every step of a join / update / departure sequence satisfies the
    cost law."""
    lela, graphs = _joined(profiles, seed)
    members = list(profiles)
    members[0] = InterestProfile(repository=members[0].repository, requirements={0: new_c})
    graphs.append(_rebuild(lela, members))
    if len(members) > 1:
        graphs.append(_rebuild(lela, members[:-1]))
    empty = DisseminationGraph(0)
    for before, after in zip([empty] + graphs, graphs):
        diff = _diff(before, after)
        assert diff.cost == len(diff.added) + len(diff.removed)
        assert not (diff.added & diff.removed)


@given(profiles=_profiles, seed=_seed)
@settings(max_examples=examples(30), deadline=None)
def test_rebuild_in_join_order_is_deterministic_across_seeds(profiles, seed):
    """Same seed + same operations => bit-identical graphs, for any seed,
    through the joins and through a departure's rebuild."""
    lela_a, a = _joined(profiles, seed)
    lela_b, b = _joined(profiles, seed)
    assert [edges_of(g) for g in a] == [edges_of(g) for g in b]
    if len(profiles) > 1:
        survivors = [p for i, p in enumerate(profiles) if i != len(profiles) // 2]
        rebuilt_a = _rebuild(lela_a, survivors)
        rebuilt_b = _rebuild(lela_b, survivors)
        assert edges_of(rebuilt_a) == edges_of(rebuilt_b)
        rebuilt_a.validate(max_dependents=lela_a.budgets(p.repository for p in survivors))
