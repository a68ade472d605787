"""Property tests: sim policies and the live filters agree everywhere.

The live repository network and the simulation policies share the pure
decision code in :mod:`repro.core.dissemination.filtering`; these
properties pin the contract the ``live_crosscheck`` experiment rests
on -- for *every* (update, edge) pair, a
:class:`~repro.core.dissemination.policy.DisseminationPolicy` and the
live nodes (a :class:`~repro.live.nodes.SourceNode` tagging with the
:class:`~repro.core.dissemination.filtering.StaircaseTagger`, a
:class:`~repro.live.nodes.RepositoryNode` forwarding over its edge
group) make identical decisions over identical update sequences.
"""

from __future__ import annotations

import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from example_counts import examples
from repro.core.dissemination import make_policy
from repro.core.dissemination.filtering import (
    FILTERED_POLICIES,
    EdgeFilter,
    SourceTagger,
    StaircaseTagger,
)
from repro.core.metrics import CostCounters
from repro.live.nodes import RepositoryNode, SourceNode

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "core"))
from scalar_tagging import examined  # noqa: E402

_value = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
_tolerance = st.floats(
    min_value=0.01, max_value=5.0, allow_nan=False, allow_infinity=False
)

#: (c_serve of each edge, parent receive coherency, update values).
_edge_case = st.tuples(
    st.lists(_tolerance, min_size=1, max_size=4),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    st.lists(_value, min_size=1, max_size=30),
)


@st.composite
def _scenarios(draw):
    policy = draw(st.sampled_from(FILTERED_POLICIES))
    c_serves, parent_receive_c, values = draw(_edge_case)
    initial = draw(_value)
    return policy, c_serves, parent_receive_c, values, initial


@given(_scenarios())
@settings(max_examples=examples(200), deadline=None)
def test_policy_and_edge_filters_agree_on_every_decision(scenario):
    """The live side is the nodes themselves: a source tagging with the
    engine's tagger relays each update to a repository whose edge group
    serves the same children the policy tables."""
    policy_name, c_serves, parent_receive_c, values, initial = scenario
    policy = make_policy(policy_name)
    source_id, parent, item_id = 0, 100, 0
    counters = CostCounters()
    repository = RepositoryNode(parent, 0.0, counters, {item_id: parent_receive_c})
    for child, c_serve in enumerate(c_serves, start=1):
        policy.register_edge(source_id, child, item_id, c_serve, initial)
        repository.add_edge(
            item_id, child, c_serve, EdgeFilter(policy_name, c_serve, initial), 0.0
        )
    tagger = StaircaseTagger() if policy_name == "centralized" else None
    source = SourceNode(source_id, 0.0, counters, tagger=tagger)
    if tagger is not None:
        for c_serve in c_serves:
            tagger.add_tolerance(item_id, c_serve, initial)
        # The relay edge serves at the smallest tolerance, which leaves
        # the unique list alone and is covered by every tag: it carries
        # each disseminated update, tag included, to the repository.
        relay_c = min(c_serves)
        tagger.add_tolerance(item_id, relay_c, initial)
        source.add_edge(
            item_id, parent, relay_c, EdgeFilter(policy_name, relay_c, initial), 0.0
        )

    for seq, value in enumerate(values, start=1):
        now = float(seq)
        decision = policy.at_source(item_id, value)
        checks = counters.source_checks
        relayed = source.on_update(item_id, value, now)
        if tagger is None:
            assert decision.disseminate and decision.tag is None
            assert relayed == [] and counters.source_checks == checks == 0
            tag = None
        else:
            assert bool(relayed) == decision.disseminate
            # The examination's checks, plus the relay edge's one when
            # the update went out.
            assert counters.source_checks - checks == (
                decision.checks + decision.disseminate
            )
            tag = relayed[0][4] if relayed else None
            assert tag == decision.tag
        if not decision.disseminate:
            continue
        rows = repository.receive(item_id, value, tag, seq, now)
        forwarded = {
            child
            for child in range(1, len(c_serves) + 1)
            if policy.decide(
                source_id, child, item_id, value, parent_receive_c, decision.tag
            ).forward
        }
        assert {row[0] for row in rows} == forwarded


@given(
    st.lists(_value, min_size=1, max_size=40),
    _tolerance,
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    _value,
)
@settings(max_examples=examples(200), deadline=None)
def test_distributed_filter_matches_policy_per_edge_state(
    values, c_serve, parent_receive_c, initial
):
    """The stateful walk matters: last_sent only moves on a forward."""
    policy = make_policy("distributed")
    policy.register_edge(0, 1, 0, c_serve, initial)
    filt = EdgeFilter("distributed", c_serve, initial)
    for value in values:
        assert (
            policy.decide(0, 1, 0, value, parent_receive_c, None).forward
            == filt.decide(value, parent_receive_c)
        )


# ---------------------------------------------------------------------------
# Quantisation safety and scalar/vectorized agreement.
# ---------------------------------------------------------------------------

import numpy as np

from repro.core.dissemination.filtering import (
    MIN_TOLERANCE,
    StaircaseTagger,
    forward_distributed,
    forward_distributed_many,
    quantise_tolerance,
    validate_tolerance,
)
from repro.errors import ConfigurationError

_valid_tolerance = st.floats(
    min_value=MIN_TOLERANCE,
    max_value=1e12,
    allow_nan=False,
    allow_infinity=False,
)


@given(_valid_tolerance)
@settings(max_examples=examples(500), deadline=None)
def test_quantisation_never_collapses_a_valid_tolerance_to_zero(c):
    """The satellite-1 contract: any tolerance that passes validation
    survives quantisation as a strictly positive value."""
    validate_tolerance(c)
    assert quantise_tolerance(c) > 0.0


@given(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False,
              max_value=MIN_TOLERANCE).filter(lambda c: c < MIN_TOLERANCE)
)
@settings(max_examples=examples(200), deadline=None)
def test_sub_quantum_tolerances_are_rejected_not_collapsed(c):
    with pytest.raises(ConfigurationError, match="quantisation quantum"):
        validate_tolerance(c)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_tolerances_are_rejected(bad):
    with pytest.raises(ConfigurationError, match="finite"):
        validate_tolerance(bad)


_batch = st.tuples(
    _value,                                        # fresh update value
    st.lists(_value, min_size=1, max_size=8),      # per-edge last state
    st.lists(_tolerance, min_size=1, max_size=8),  # per-edge tolerances
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)


@given(_batch)
@settings(max_examples=examples(300), deadline=None)
def test_vectorized_forward_tests_match_scalar_elementwise(case):
    value, lasts, cs, prc = case
    n = min(len(lasts), len(cs))
    lasts, cs = lasts[:n], cs[:n]
    last_arr = np.asarray(lasts, dtype=np.float64)
    cs_arr = np.asarray(cs, dtype=np.float64)

    dist = forward_distributed_many(value, last_arr, cs_arr, prc)

    for i in range(n):
        assert dist[i] == forward_distributed(value, lasts[i], cs[i], prc)


@given(
    st.lists(_tolerance, min_size=1, max_size=6, unique=True),
    st.lists(_value, min_size=1, max_size=40),
    _value,
)
@settings(max_examples=examples(200), deadline=None)
def test_array_source_tagger_matches_scalar_tagger(cs, values, initial):
    scalar = SourceTagger()
    for c in cs:
        scalar.add_tolerance(0, c, initial)
    unique = scalar.unique_tolerances(0)
    array = StaircaseTagger()
    for c in unique:
        array.add_tolerance(0, c, initial)
    assert array.tag(0, values) == examined(scalar, 0, values)


# ---------------------------------------------------------------------------
# The staircase: run-length last-sent state over an ascending column.
# ---------------------------------------------------------------------------

import math

from repro.core.dissemination.filtering import SourceDecision
from repro.core.dissemination.filtering import Staircase


def _flat(stairs: Staircase) -> list[float]:
    """The flat last-sent column the runs stand for, one value per
    tolerance."""
    flat: list[float] = []
    start = 0
    for end, held in zip(stairs.ends, stairs.vals):
        flat.extend([held] * (end - start))
        start = end
    return flat


def _assert_canonical(stairs: Staircase) -> None:
    """Run ends strictly increasing up to the column length, adjacent
    held values different."""
    assert all(a < b for a, b in zip(stairs.ends, stairs.ends[1:]))
    assert (stairs.ends[-1] if stairs.ends else 0) == len(stairs.cs)
    assert len(stairs.vals) == len(stairs.ends)
    assert all(a != b for a, b in zip(stairs.vals, stairs.vals[1:]))


@st.composite
def _client_block_walks(draw):
    """An ascending tolerance column with ties and one-ulp neighbours
    (one client, often), and a walk of wired segments: ``(parent_receive_c,
    values)`` pairs whose values come from a small pool -- so they recur
    and runs re-merge -- seeded with values that sit exactly a tolerance
    (and a tolerance less the parent coherency) away from another pool
    value, where the rule's rounding decides.  Segments may be empty, and
    some swing between two values further apart than the widest
    tolerance, so every client is served at every step."""
    column = []
    for c in draw(st.lists(_tolerance, min_size=1, max_size=10)):
        column.append(c)
        for twin in draw(st.lists(st.sampled_from(["tie", "ulp"]), max_size=2)):
            column.append(c if twin == "tie" else math.nextafter(c, math.inf))
    column.sort()
    prc = st.one_of(
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e-15, allow_nan=False),
        st.sampled_from(column),
    )
    pool = draw(st.lists(_value, min_size=1, max_size=3))
    for _ in range(draw(st.integers(0, 3))):
        anchor = draw(st.sampled_from(pool))
        c = draw(st.sampled_from(column))
        pool.append(anchor + c - draw(st.one_of(st.just(0.0), prc)))
    swing = 2.0 * column[-1] + 1.0
    swings = st.builds(
        lambda anchor, length: [anchor + swing * (k % 2) for k in range(length)],
        st.sampled_from(pool),
        st.integers(2, 12),
    )
    segments = draw(
        st.lists(
            st.tuples(
                prc,
                st.one_of(st.lists(st.sampled_from(pool), max_size=8), swings),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return column, draw(st.sampled_from(pool)), segments


_ULP = 2.0 ** -52  # spacing of the floats in [1, 2)


@given(_client_block_walks())
# The bisect's guess, ``deviation + parent_receive_c``, rounds one way
# and the rule's ``c - deviation`` the other.  Too low: the slack of the
# three tied 0.5s is exactly 0 < 1e-20, served, though 0.5 + 1e-20 ==
# 0.5 puts the cut before them.  Too high: (1 + 3u) - 1.5u ties to even
# 1 + 2u, not below the parent's 1 + 2u, unserved, though 1.5u + (1 +
# 2u) ties to even 1 + 4u, above it.
@example(([0.25, 0.5, 0.5, 0.5, 0.75, 1.0], 0.0, [(1e-20, [0.5])]))
@example(([1.0, 1.0 + 3 * _ULP, 1.5], 0.0, [(1.0 + 2 * _ULP, [1.5 * _ULP])]))
# One client: an empty segment, then values that serve it and one that does not.
@example(([0.5], 0.0, [(0.1, []), (0.0, [3.0, -3.0, 3.0, 3.2]), (0.2, [3.1])]))
@settings(max_examples=examples(300), deadline=None)
def test_staircase_serve_is_the_elementwise_rule_over_the_flat_column(case):
    column, initial, segments = case
    cs = np.asarray(column, dtype=np.float64)
    cs.flags.writeable = False
    stairs = Staircase(memoryview(cs), initial)
    last_sent = np.full(cs.shape, initial)
    for prc, values in segments:
        expected = 0
        for value in values:
            mask = forward_distributed_many(value, last_sent, cs, prc)
            last_sent[mask] = value
            expected += int(np.count_nonzero(mask))
        assert stairs.serve(values, prc) == expected
        assert _flat(stairs) == last_sent.tolist()
        _assert_canonical(stairs)


#: Tolerances on a coarse grid (hundredths), so "a new tolerance
#: strictly between two existing ones" survives quantisation.
_grid = st.integers(min_value=1, max_value=300)

#: (what to do, which pool values -- a tagging pass takes them all, the
#: other ops the first -- which grid point or edge).
_tagger_op = st.tuples(
    st.sampled_from(["tag", "tag", "add_new", "add_existing", "remove"]),
    st.lists(st.integers(0, 5), min_size=1, max_size=6),
    _grid,
)


@given(
    st.lists(_grid, min_size=1, max_size=6),
    st.lists(_value, min_size=6, max_size=6),
    st.lists(_tagger_op, min_size=1, max_size=40),
)
@settings(max_examples=examples(300), deadline=None)
def test_staircase_tagger_follows_the_scalar_tagger_through_rewires(
    grid, pool, ops
):
    """Every tagging pass (its checks, the updates it disseminates and
    their tags), the unique list and the per-tolerance last-sent column
    agree with :class:`SourceTagger` examining value by value while
    edges come and go between passes: a *new* tolerance lands inside a
    run with its own initial value (the run must split in place -- the
    staircase stays the canonical compression of the reference column),
    or beside one holding that value (the run grows), a second edge at
    an existing tolerance only moves a count, and removals -- shrinking,
    dropping and merging runs -- run the item down to empty."""
    scalar, stairs = SourceTagger(), StaircaseTagger()
    edges = [k / 100.0 for k in grid]
    for c in edges:
        scalar.add_tolerance(0, c, pool[0])
        stairs.add_tolerance(0, c, pool[0])

    def check_state():
        unique = scalar.unique_tolerances(0)
        assert stairs.unique_tolerances(0) == unique
        held = stairs._state[0][0]
        reference = [scalar._last_sent[0][c] for c in unique]
        assert _flat(held) == reference
        _assert_canonical(held)
        assert stairs.tag(0, [])[0] == len(unique)

    check_state()
    for op, picks, arg in ops:
        value = pool[picks[0]]
        if op == "tag":
            values = [pool[pick] for pick in picks]
            assert stairs.tag(0, values) == examined(scalar, 0, values)
        elif op == "add_new":
            c = arg / 100.0 + 0.005  # between grid points: new unless added before
            for tagger in (scalar, stairs):
                tagger.add_tolerance(0, c, value)
            edges.append(c)
        elif edges and op == "add_existing":
            c = edges[arg % len(edges)]
            before = stairs.unique_tolerances(0)
            for tagger in (scalar, stairs):
                tagger.add_tolerance(0, c, value)
            edges.append(c)
            assert stairs.unique_tolerances(0) == before
        elif edges and op == "remove":
            c = edges.pop(arg % len(edges))
            for tagger in (scalar, stairs):
                tagger.remove_tolerance(0, c)
        check_state()

    while edges:
        c = edges.pop()
        for tagger in (scalar, stairs):
            tagger.remove_tolerance(0, c)
        check_state()
    nothing = SourceDecision(disseminate=False, tag=None, checks=0)
    assert scalar.examine(0, pool[1]) == nothing
    assert stairs.tag(0, [pool[1]]) == (0, [], [])
    stairs.remove_tolerance(0, 0.5)  # unknown by now: ignored, like the scalar one
    assert stairs.unique_tolerances(0) == []


# ---------------------------------------------------------------------------
# The policy -> rule table the batch kernel binds its decision from.
# ---------------------------------------------------------------------------

from repro.core.dissemination.filtering import FORWARD_RULES


def test_the_rule_table_covers_exactly_the_filtered_policies():
    assert tuple(FORWARD_RULES) == FILTERED_POLICIES


@pytest.mark.parametrize("policy", FILTERED_POLICIES)
@given(
    value=_value,
    last=_value,
    c=_tolerance,
    prc=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    tag=_tolerance,
)
@settings(max_examples=examples(200), deadline=None)
def test_each_rule_table_entry_is_its_edge_filters_decision(
    policy, value, last, c, prc, tag
):
    """One positional signature for all four: the engine calls
    ``rule(value, last_sent, c_serve, parent_receive_c, tag)`` and moves
    ``last_sent`` itself, which must be what ``EdgeFilter.decide`` does
    (its refusal of an untagged centralised update is pinned in
    ``tests/core/test_filtering.py``)."""
    edge = EdgeFilter(policy, c, last)
    forward = FORWARD_RULES[policy](value, last, edge.c_serve, prc, tag)
    assert edge.decide(value, prc, tag) is forward
    assert edge.last_sent == (value if forward else last)



# ---------------------------------------------------------------------------
# The engine's one inline test: the last-sent rules as operand choices.
# ---------------------------------------------------------------------------

from repro.core.dissemination.filtering import (
    forward_distributed,
    forward_eq3_only,
    forward_flooding,
)

#: Every finite float: signed zeros, subnormals and magnitudes whose
#: difference overflows to infinity are all in range.
_finite = st.floats(allow_nan=False, allow_infinity=False)
_MAX = 1.7976931348623157e308
_TINY = 5e-324  # the smallest subnormal


@given(value=_finite, last=_finite, c=_finite, prc=_finite)
@example(value=_MAX, last=-_MAX, c=1.0, prc=0.5)
@example(value=-_MAX, last=_MAX, c=_MAX, prc=_MAX)
@example(value=0.0, last=-0.0, c=0.0, prc=0.0)
@example(value=-0.0, last=0.0, c=-0.0, prc=-0.0)
@example(value=_TINY, last=0.0, c=0.0, prc=0.0)
@example(value=_TINY, last=-_TINY, c=_TINY, prc=1.0)
@settings(max_examples=examples(500), deadline=None)
def test_eq3_alone_is_the_distributed_test_at_zero_receive_coherency(
    value, last, c, prc
):
    """The engine stores ``(c, 0.0)`` for ``eq3_only`` and runs the
    distributed test: Eq. (7) at a zero receive coherency adds nothing."""
    assert forward_eq3_only(value, last, c, prc) == forward_distributed(
        value, last, c, 0.0
    )


@given(value=_finite, last=_finite)
@example(value=_MAX, last=-_MAX)
@example(value=0.0, last=-0.0)
@example(value=_TINY, last=0.0)
@example(value=_TINY, last=-_TINY)
@example(value=1.0, last=1.0 + _ULP)
@settings(max_examples=examples(500), deadline=None)
def test_flooding_is_the_distributed_test_at_zero_tolerance(value, last):
    """The engine stores ``(0.0, 0.0)`` for ``flooding``: for finite
    values, ``|v - l| > 0`` exactly when ``v != l`` (gradual underflow
    keeps a difference of distinct floats nonzero; an overflow is
    ``inf``)."""
    assert forward_flooding(value, last) == forward_distributed(value, last, 0.0, 0.0)
