"""Property test: a live node charges one call what per-edge charging would.

:meth:`repro.live.nodes._ForwardingNode._forward` counts its checks and
messages in locals and charges :class:`~repro.core.metrics.CostCounters`
once per call.  Counters are only read between node calls, so what one
call *leaves* is the whole contract: for any edge list, policy and value
stream it must equal, field for field and key for key, what charging
``record_check`` / ``record_message`` once per edge leaves -- including
the calls that charge nothing, where no per-node key may appear.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.dissemination.filtering import FILTERED_POLICIES, EdgeFilter
from repro.core.metrics import CostCounters
from repro.live.nodes import RepositoryNode

NODE, ITEM, INITIAL = 3, 0, 100.0

#: A small pool around the initial value, so "no edge forwards" happens.
_value = st.sampled_from([INITIAL + step * 0.05 for step in range(-4, 5)])
_tolerance = st.floats(min_value=0.01, max_value=0.3, allow_nan=False)
#: (serving tolerance, is it a client edge) per edge, in edge order.
_edges = st.lists(st.tuples(_tolerance, st.booleans()), max_size=6)


def _filter(policy: str, c_serve: float, is_client: bool) -> EdgeFilter:
    # Client service is repository-local whatever the plane's policy.
    return EdgeFilter("distributed" if is_client else policy, c_serve, INITIAL)


def _charge_per_edge(counters, filters, value, tag, parent_receive_c, is_source):
    """The reference: one ``record_*`` call per edge, as decided."""
    for edge_filter, is_client in filters:
        if is_client:
            edge_filter.decide(value, parent_receive_c, None)
            continue
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
@settings(max_examples=200, deadline=None)
def test_one_forward_call_leaves_what_per_edge_charging_leaves(
    policy, edges, values, tag, parent_receive_c, is_source
):
    node = RepositoryNode(NODE, 0.0125, CostCounters(), {ITEM: parent_receive_c})
    for child, (c_serve, is_client) in enumerate(edges):
        node.add_edge(
            ITEM, 10 + child, c_serve, _filter(policy, c_serve, is_client), 0.015,
            is_client=is_client,
        )
    reference = CostCounters()
    twins = [(_filter(policy, c, is_client), is_client) for c, is_client in edges]
    for seq, value in enumerate(values, start=1):
        charged = reference.messages
        rows = node._forward(
            ITEM, value, tag, float(seq), parent_receive_c, seq, is_source
        )
        _charge_per_edge(reference, twins, value, tag, parent_receive_c, is_source)
        assert node.counters == reference  # every scalar, both per-node dicts
        # And the rows it emitted are the messages it charged for.
        to_repositories = [row for row in rows if not edges[row[0] - 10][1]]
        assert len(to_repositories) == reference.messages - charged
    assert node.client_messages + reference.messages == node.station.jobs_served
    if all(is_client for _c, is_client in edges):
        assert node.counters == CostCounters()  # nothing charged, no key created
    if not node.counters.messages:
        assert node.counters.per_node_messages == {}


def test_calls_that_charge_nothing_create_no_per_node_key():
    only_clients = RepositoryNode(NODE, 0.0125, CostCounters(), {ITEM: 0.02})
    only_clients.add_edge(
        ITEM, 10, 0.05, EdgeFilter("distributed", 0.05, INITIAL), 0.0, is_client=True
    )
    assert len(only_clients._forward(ITEM, 101.0, None, 1.0, 0.02, 1, False)) == 1
    assert only_clients.counters == CostCounters()
    assert only_clients.client_messages == 1

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
