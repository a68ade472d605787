"""Property-based tests of LeLA's structural invariants.

For arbitrary interest profiles, degrees and P% bands, the constructed
``d3g`` must satisfy every invariant of DESIGN.md: per-item trees rooted
at the source, Eq. (1) along every edge, full coverage of every declared
interest, and capacity limits in push connections.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from example_counts import examples
from repro.core.interests import InterestProfile
from repro.core.lela import build_d3g

N_ITEMS = 5


@st.composite
def scenario(draw):
    n_repos = draw(st.integers(min_value=1, max_value=12))
    degree = draw(st.integers(min_value=1, max_value=6))
    p_percent = draw(st.sampled_from([0.0, 1.0, 5.0, 25.0, 100.0]))
    profiles = []
    for repo in range(1, n_repos + 1):
        n_wanted = draw(st.integers(min_value=1, max_value=N_ITEMS))
        items = draw(
            st.permutations(list(range(N_ITEMS))).map(lambda p: p[:n_wanted])
        )
        reqs = {
            item: draw(
                st.floats(min_value=0.01, max_value=1.0, allow_nan=False)
            )
            for item in items
        }
        profiles.append(InterestProfile(repository=repo, requirements=reqs))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return profiles, degree, p_percent, seed


def delays(u, v):
    if u == v:
        return 0.0
    # Deterministic pseudo-distances keep preference factors distinct.
    return 10.0 + ((hash((min(u, v), max(u, v))) % 97) / 10.0)


@given(scenario())
@settings(max_examples=examples(60), deadline=None)
def test_lela_invariants(case):
    profiles, degree, p_percent, seed = case
    graph = build_d3g(
        profiles,
        source=0,
        comm_delay_ms=delays,
        offered_degree=degree,
        p_percent=p_percent,
        rng=np.random.default_rng(seed),
    )
    # validate() checks Eq. (1), parent tables, reachability, capacity.
    graph.validate(max_dependents={n: degree for n in graph.nodes})
    # Every declared interest is served at sufficient stringency.
    for profile in profiles:
        state = graph.nodes[profile.repository]
        for item_id, c in profile.requirements.items():
            assert item_id in state.receive_c
            assert state.receive_c[item_id] <= c + 1e-12
    # Levels partition the repositories.
    placed = [n for level in graph.levels for n in level]
    assert sorted(placed) == sorted(graph.nodes)


@given(scenario())
@settings(max_examples=examples(40), deadline=None)
def test_lela_receive_c_is_min_over_subtree(case):
    """A node's receive coherency equals the most stringent requirement
    among its own need and everything it serves downstream."""
    profiles, degree, p_percent, seed = case
    graph = build_d3g(
        profiles,
        source=0,
        comm_delay_ms=delays,
        offered_degree=degree,
        p_percent=p_percent,
        rng=np.random.default_rng(seed),
    )
    for node, state in graph.nodes.items():
        if node == graph.source:
            continue
        for item_id, c_recv in state.receive_c.items():
            own = state.own_c.get(item_id, float("inf"))
            served = [
                graph.nodes[child].receive_c[item_id]
                for child, items in state.children.items()
                if item_id in items
            ]
            needed = min([own] + served)
            assert c_recv <= needed + 1e-12
