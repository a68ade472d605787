"""Properties of one live node call: what it charges, when its copies leave.

:meth:`repro.live.nodes._ForwardingNode._forward` counts its checks and
messages in locals and charges :class:`~repro.core.metrics.CostCounters`
once per call.  Counters are only read between node calls, so what one
call *leaves* is the whole contract: for any edge list, policy and value
stream it must equal, field for field and key for key, what charging
``record_check`` / ``record_message`` once per edge leaves -- including
the calls that charge nothing, where no per-node key may appear.  (A
repository's modeled clients cost a node nothing: the reconfiguration
core serves them at scoring time, and ``tests/live/test_modeled_clients.py``
holds every plane's client totals to the reference oracle's loop.)

A node keeps its serialised server time as one float and chains its
departures inline; every row's ``arrival_s`` must be, bit for bit, what
a reference :class:`~repro.sim.queueing.FifoStation` fed the same
forwarded copies computes, and the station's guards must hold.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from example_counts import examples
from repro.core.dissemination.filtering import FILTERED_POLICIES, EdgeFilter
from repro.core.metrics import CostCounters
from repro.errors import SimulationError
from repro.live.nodes import RepositoryNode, SourceNode
from repro.sim.queueing import FifoStation

NODE, ITEM, INITIAL = 3, 0, 100.0

#: A small pool around the initial value, so "no edge forwards" happens.
_value = st.sampled_from([INITIAL + step * 0.05 for step in range(-4, 5)])
_tolerance = st.floats(min_value=0.01, max_value=0.3, allow_nan=False)
#: Serving tolerance per dependent, in edge order.
_edges = st.lists(_tolerance, max_size=6)


def _charge_per_edge(counters, filters, value, tag, parent_receive_c, is_source):
    """The reference: one ``record_*`` call per edge, as decided."""
    for edge_filter in filters:
        forward = edge_filter.decide(value, parent_receive_c, tag)
        counters.record_check(NODE, is_source)
        if forward:
            counters.record_message(NODE, is_source)


@given(
    policy=st.sampled_from(FILTERED_POLICIES),
    edges=_edges,
    values=st.lists(_value, min_size=1, max_size=12),
    tag=_tolerance,
    parent_receive_c=st.floats(min_value=0.0, max_value=0.2, allow_nan=False),
    is_source=st.booleans(),
)
@settings(max_examples=examples(200), deadline=None)
def test_one_forward_call_leaves_what_per_edge_charging_leaves(
    policy, edges, values, tag, parent_receive_c, is_source
):
    node = RepositoryNode(NODE, 0.0125, CostCounters(), {ITEM: parent_receive_c})
    for child, c_serve in enumerate(edges):
        node.add_edge(
            ITEM, 10 + child, c_serve, EdgeFilter(policy, c_serve, INITIAL), 0.015
        )
    reference = CostCounters()
    twins = [EdgeFilter(policy, c, INITIAL) for c in edges]
    forwarded = 0
    for seq, value in enumerate(values, start=1):
        charged = reference.messages
        if is_source:
            rows = node._forward(
                ITEM, value, tag, float(seq), parent_receive_c, seq, True
            )
        else:
            # A delivery: logged, then forwarded.
            rows = node.receive(ITEM, value, tag, seq, float(seq))
            reference.record_delivery()
        _charge_per_edge(reference, twins, value, tag, parent_receive_c, is_source)
        assert node.counters == reference  # every scalar, both per-node dicts
        # And the rows it emitted are the messages it charged for.
        assert len(rows) == reference.messages - charged
        forwarded += len(rows)
    # Only forwarded copies are charged: one message per row.
    assert reference.messages == forwarded
    if not edges:
        assert node.counters.per_node_checks == {}  # no key created
    if not node.counters.messages:
        assert node.counters.per_node_messages == {}


def test_calls_that_charge_nothing_create_no_per_node_key():
    a_leaf = RepositoryNode(NODE, 0.0125, CostCounters(), {ITEM: 0.02})
    assert a_leaf.receive(ITEM, 101.0, None, 1, 1.0) == []
    counters = a_leaf.counters
    assert counters == CostCounters(deliveries=1)  # no per-node key either

    nothing_forwards = RepositoryNode(NODE, 0.0125, CostCounters(), {ITEM: 0.02})
    nothing_forwards.add_edge(
        ITEM, 10, 0.5, EdgeFilter("distributed", 0.5, INITIAL), 0.015
    )
    assert nothing_forwards._forward(ITEM, 100.01, None, 1.0, 0.02, 1, False) == []
    counters = nothing_forwards.counters
    assert counters.per_node_checks == {NODE: 1} and counters.repository_checks == 1
    assert counters.per_node_messages == {} and counters.messages == 0

    no_edges = RepositoryNode(NODE, 0.0125, CostCounters(), {ITEM: 0.02})
    assert no_edges._forward(ITEM, 101.0, None, 1.0, 0.02, 1, False) == []
    assert no_edges.counters == CostCounters()


# ---- departures: the node's inline FIFO chain is the station's ----

#: Gaps between calls: bursts while the node is still backlogged (0 and
#: fractions of a 12.5 ms service time) and idle gaps past the backlog.
_gap = st.sampled_from([0.0, 0.001, 0.004, 0.0125, 0.02, 0.5]) | st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False
)
_comp_delay = st.sampled_from([0.0, 0.0125]) | st.floats(
    min_value=0.0, max_value=0.1, allow_nan=False
)
_delay = st.floats(min_value=0.0, max_value=0.2, allow_nan=False)


@given(
    policy=st.sampled_from(FILTERED_POLICIES),
    comp_delay=_comp_delay,
    edges=st.lists(st.tuples(_tolerance, _delay), min_size=1, max_size=6),
    calls=st.lists(st.tuples(_gap, _value), min_size=1, max_size=25),
    tag=_tolerance,
)
@settings(max_examples=examples(200), deadline=None)
def test_every_arrival_is_a_reference_stations_completion_plus_its_delay(
    policy, comp_delay, edges, calls, tag
):
    node = RepositoryNode(NODE, comp_delay, CostCounters(), {ITEM: 0.0})
    delay_of = {}
    for child, (c_serve, delay) in enumerate(edges, start=10):
        node.add_edge(ITEM, child, c_serve, EdgeFilter(policy, c_serve, INITIAL), delay)
        delay_of[child] = delay
    station, now = FifoStation(), 0.0
    for seq, (gap, value) in enumerate(calls, start=1):
        now += gap
        for row in node.receive(ITEM, value, tag, seq, now):
            expected = station.submit(now, comp_delay) + delay_of[row[0]]
            assert row[1].hex() == expected.hex()


@pytest.mark.parametrize("now", [-1e-9, -1.0, float("nan")])
def test_a_copy_forwarded_at_a_negative_or_nan_instant_is_refused(now):
    node = RepositoryNode(NODE, 0.0125, CostCounters(), {ITEM: 0.02})
    node.add_edge(ITEM, 10, 0.05, EdgeFilter("distributed", 0.05, INITIAL), 0.015)
    with pytest.raises(SimulationError, match="must be non-negative"):
        node.receive(ITEM, INITIAL + 1.0, None, 1, now)
    # Without a copy to send, the instant is never a departure.
    leaf = RepositoryNode(NODE, 0.0125, CostCounters(), {ITEM: 0.02})
    assert leaf.receive(ITEM, INITIAL + 1.0, None, 1, now) == []


@pytest.mark.parametrize("node_type", [RepositoryNode, SourceNode])
@pytest.mark.parametrize("comp_delay", [-1e-9, -0.0125, float("nan")])
def test_a_negative_or_nan_comp_delay_is_refused_at_construction(node_type, comp_delay):
    extra = ({},) if node_type is RepositoryNode else ()
    with pytest.raises(SimulationError, match="comp_delay_s must be non-negative"):
        node_type(NODE, comp_delay, CostCounters(), *extra)
