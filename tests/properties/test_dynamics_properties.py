"""Property-based tests for DynamicMembership / ReconfigurationDiff.

The churn subsystem leans on three contracts of the dynamics layer:

- the diff of two identical graphs is empty (no-op churn is free),
- ``diff.cost == len(added) + len(removed)`` (the reconfiguration-cost
  accounting the engine charges into the counters), and
- rebuild-in-join-order is deterministic: the same seed and the same
  operation sequence always produce the same edge set, whatever the
  seed's value.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.dynamics import DynamicMembership, ReconfigurationDiff
from repro.core.dynamics import edges_of  # the canonical edge view
from repro.core.interests import InterestProfile


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


def _build(profiles, seed, degree=3):
    membership = DynamicMembership(
        source=0, comm_delay_ms=flat_delay, offered_degree=degree, seed=seed
    )
    diffs = [membership.join(p) for p in profiles]
    return membership, diffs


@given(profiles=_profiles, seed=_seed)
@settings(max_examples=30, deadline=None)
def test_noop_update_diff_is_empty(profiles, seed):
    """Reapplying a member's unchanged profile diffs to nothing."""
    membership, _ = _build(profiles, seed)
    for profile in profiles:
        diff = membership.update_requirements(
            InterestProfile(
                repository=profile.repository,
                requirements=dict(profile.requirements),
            )
        )
        assert diff.unchanged_is_cheap
        assert diff.added == frozenset() and diff.removed == frozenset()


@given(profiles=_profiles, seed=_seed, new_c=_tolerance)
@settings(max_examples=30, deadline=None)
def test_cost_is_added_plus_removed(profiles, seed, new_c):
    """Every diff produced by join/leave/update satisfies the cost law."""
    membership, join_diffs = _build(profiles, seed)
    diffs: list[ReconfigurationDiff] = list(join_diffs)
    first = profiles[0].repository
    diffs.append(
        membership.update_requirements(
            InterestProfile(repository=first, requirements={0: new_c})
        )
    )
    if len(profiles) > 1:
        diffs.append(membership.leave(profiles[-1].repository))
    for diff in diffs:
        assert diff.cost == len(diff.added) + len(diff.removed)
        assert not (diff.added & diff.removed)


@given(profiles=_profiles, seed=_seed)
@settings(max_examples=30, deadline=None)
def test_rebuild_in_join_order_is_deterministic_across_seeds(profiles, seed):
    """Same seed + same operations => bit-identical graphs, for any seed.

    Exercised through a leave (the rebuild path): two independent
    memberships replaying the same sequence must agree edge for edge.
    """
    a, _ = _build(profiles, seed)
    b, _ = _build(profiles, seed)
    assert edges_of(a.graph) == edges_of(b.graph)
    if len(profiles) > 1:
        victim = profiles[len(profiles) // 2].repository
        diff_a = a.leave(victim)
        diff_b = b.leave(victim)
        assert diff_a == diff_b
        assert edges_of(a.graph) == edges_of(b.graph)
        a.graph.validate()


@given(profiles=_profiles, seed=_seed)
@settings(max_examples=20, deadline=None)
def test_leave_then_rebuild_matches_fresh_membership(profiles, seed):
    """After a departure, the rebuilt graph equals a fresh membership of
    the survivors joined in the original join order (the paper's
    "the algorithm is reapplied")."""
    if len(profiles) < 2:
        return
    membership, _ = _build(profiles, seed)
    victim = profiles[0].repository
    membership.leave(victim)

    fresh = DynamicMembership(
        source=0, comm_delay_ms=flat_delay, offered_degree=3, seed=seed
    )
    # The rebuild uses one RNG stream seeded by `seed` over the original
    # join order; replay the same insertions through the internal
    # rebuild path to compare like with like.
    for profile in profiles[1:]:
        fresh._profiles[profile.repository] = profile
        fresh._join_order.append(profile.repository)
    fresh.graph = fresh._rebuild()
    assert edges_of(membership.graph) == edges_of(fresh.graph)
