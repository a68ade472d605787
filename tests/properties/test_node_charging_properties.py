"""Property test: a live node charges one call what per-edge charging would.

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
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from example_counts import examples
from repro.core.dissemination.filtering import FILTERED_POLICIES, EdgeFilter
from repro.core.metrics import CostCounters
from repro.live.nodes import RepositoryNode
from repro.sim.queueing import FifoStation

NODE, ITEM, INITIAL = 3, 0, 100.0

#: A small pool around the initial value, so "no edge forwards" happens.
_value = st.sampled_from([INITIAL + step * 0.05 for step in range(-4, 5)])
_tolerance = st.floats(min_value=0.01, max_value=0.3, allow_nan=False)
#: Serving tolerance per dependent, in edge order.
_edges = st.lists(_tolerance, max_size=6)


class CountingStation(FifoStation):
    """A node's station that counts the jobs submitted to it."""

    def __init__(self) -> None:
        super().__init__()
        self.jobs = 0

    def submit(self, arrival: float, service_time: float) -> float:
        self.jobs += 1
        return super().submit(arrival, service_time)


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
    node.station = CountingStation()
    for child, c_serve in enumerate(edges):
        node.add_edge(
            ITEM, 10 + child, c_serve, EdgeFilter(policy, c_serve, INITIAL), 0.015
        )
    reference = CostCounters()
    twins = [EdgeFilter(policy, c, INITIAL) for c in edges]
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
    # Only forwarded copies queue.
    assert reference.messages == node.station.jobs
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
