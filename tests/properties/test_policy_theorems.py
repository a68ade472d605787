"""Property-based tests of the paper's Section 5 fidelity theorems.

The paper sketches (via its technical report) that both exact
dissemination policies maintain every repository within its coherency
tolerance at all times, *given zero communication and computational
delays*.  We verify this with hypothesis over arbitrary update sequences
and arbitrary Eq.-(1)-consistent chains: the source value and every
node's held copy must never differ by more than the node's tolerance.

The Eq.-3-only policy provably lacks this property; the deterministic
counterexample lives in tests/core/test_missed_updates.py.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.dissemination import make_policy

_TOL = 1e-9

# Price-like values and tolerance ladders shaped like the paper's mixes.
values_strategy = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=60,
)
tolerances_strategy = st.lists(
    st.floats(min_value=0.01, max_value=5.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=6,
)


def run_distributed_chain(values: list[float], chain_cs: list[float]) -> list[list[float]]:
    """Drive a zero-delay chain source -> n0 -> n1 -> ...; return holdings."""
    policy = make_policy("distributed")
    initial = values[0]
    n = len(chain_cs)
    for i in range(n):
        parent = i - 1  # -1 encodes the source
        policy.register_edge(parent, i, 0, chain_cs[i], initial)
    held = [initial] * n
    history = [list(held)]
    for v in values[1:]:
        for i in range(n):
            parent_c = 0.0 if i == 0 else chain_cs[i - 1]
            if policy.decide(i - 1, i, 0, v, parent_c, None).forward:
                held[i] = v
            else:
                break  # downstream nodes cannot see a suppressed update
        history.append(list(held))
    return history


@given(values=values_strategy, cs=tolerances_strategy)
@settings(max_examples=200, deadline=None)
def test_distributed_chain_always_coherent(values, cs):
    chain_cs = sorted(cs)  # Eq. (1): stringency non-increasing downstream
    history = run_distributed_chain(values, chain_cs)
    for v, held in zip(values, history):
        for i, c in enumerate(chain_cs):
            assert abs(v - held[i]) <= c + _TOL, (
                f"node {i} (c={c}) holds {held[i]} while source is {v}"
            )


@given(values=values_strategy, cs=tolerances_strategy)
@settings(max_examples=200, deadline=None)
def test_centralized_chain_always_coherent(values, cs):
    chain_cs = sorted(cs)
    policy = make_policy("centralized")
    initial = values[0]
    n = len(chain_cs)
    for i in range(n):
        policy.register_edge(i - 1, i, 0, chain_cs[i], initial)
    held = [initial] * n
    for v in values[1:]:
        decision = policy.at_source(0, v)
        if decision.disseminate:
            for i in range(n):
                parent_c = 0.0 if i == 0 else chain_cs[i - 1]
                if policy.decide(i - 1, i, 0, v, parent_c, decision.tag).forward:
                    held[i] = v
                else:
                    break
        for i, c in enumerate(chain_cs):
            assert abs(v - held[i]) <= c + _TOL


@given(values=values_strategy, cs=tolerances_strategy)
@settings(max_examples=100, deadline=None)
def test_centralized_tagging_invariants(values, cs):
    """Section 5.2's bookkeeping, as a property.

    After every source update: the returned tag (if any) is the largest
    violated unique tolerance; every tolerance <= tag has its last-sent
    refreshed to the new value; every tolerance > tag keeps its anchor.
    (Figure 11(b)'s equal-message claim is empirical on stock traces and
    is asserted on realistic workloads in the engine tests, not here --
    adversarial sequences can legitimately split the two policies.)
    """
    chain_cs = sorted(set(round(c, 9) for c in cs))
    policy = make_policy("centralized")
    initial = values[0]
    for i, c in enumerate(chain_cs):
        policy.register_edge(i - 1, i, 0, c, initial)
    anchors = {c: initial for c in chain_cs}
    for v in values[1:]:
        decision = policy.at_source(0, v)
        violated = [c for c in chain_cs if abs(v - anchors[c]) > c]
        if not violated:
            assert not decision.disseminate
            continue
        assert decision.disseminate
        assert decision.tag == max(violated)
        assert decision.checks == len(chain_cs)
        for c in chain_cs:
            if c <= decision.tag:
                anchors[c] = v


@given(values=values_strategy, cs=tolerances_strategy)
@settings(max_examples=100, deadline=None)
def test_distributed_suppression_is_safe(values, cs):
    """Whenever the distributed policy suppresses, the slack really was
    large enough that the child could absorb any parent-invisible move."""
    chain_cs = sorted(cs)
    policy = make_policy("distributed")
    initial = values[0]
    policy.register_edge("p", "q", 0, chain_cs[-1], initial)
    last_sent = initial
    c_q = chain_cs[-1]
    c_p = chain_cs[0] if len(chain_cs) > 1 else 0.0
    for v in values[1:]:
        if policy.decide("p", "q", 0, v, c_p, None).forward:
            last_sent = v
        else:
            # Suppressed: Eq. (7) must NOT have fired.
            assert c_q - abs(v - last_sent) >= c_p - _TOL
            assert abs(v - last_sent) <= c_q + _TOL
