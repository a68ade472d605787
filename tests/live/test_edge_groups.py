"""The live nodes' edge columns stay straight through rewiring.

A node holds, per item, one :class:`~repro.live.nodes.EdgeGroup` for
its repository-plane dependents.  Rewiring edits those columns; the
fleet's anti-entropy heads read the same columns.
"""

import multiprocessing

import pytest

from repro.core.dissemination.filtering import FORWARD_RULES
from repro.engine.config import SimulationConfig
from repro.fleet.worker import FleetSpec, _Shard
from repro.live.harness import build_live_network, run_live
from repro.live.nodes import EdgeGroup
from repro.live.transport import VirtualWire

pytestmark = pytest.mark.live

CONFIG = SimulationConfig(
    n_repositories=5, n_routers=15, n_items=2, trace_samples=80
)
CLIENTS = CONFIG.with_(clients_per_repository=12)


def _columns(group: EdgeGroup) -> tuple[list, ...]:
    return (
        list(group.child), list(group.cs), list(group.last),
        list(group.delay), list(group.last_seq),
    )


def _senders(network):
    return [network.source_node, *network.repositories.values()]


def test_edge_group_unwire_of_an_absent_child_changes_nothing():
    group = EdgeGroup(FORWARD_RULES["distributed"])
    group.wire(3, 0.1, 1.0, 0.01)
    group.wire(4, 0.2, 1.0, 0.02)
    before = _columns(group)
    group.unwire(99)
    assert _columns(group) == before
    group.unwire(3)
    assert _columns(group) == ([4], [0.2], [1.0], [0.02], [0])
    group.unwire(3)
    assert _columns(group) == ([4], [0.2], [1.0], [0.02], [0])


def test_rewiring_a_child_restarts_its_last_value_and_seq():
    network = build_live_network(CONFIG)
    VirtualWire(network).run()
    forwarded = [
        (node, item_id, i)
        for node in _senders(network)
        for item_id, group in node.edges.items()
        for i, seq in enumerate(group.last_seq)
        if seq > 0
    ]
    assert forwarded
    node, item_id, i = forwarded[0]
    group = node.edges[item_id]
    child, c, delay = group.child[i], group.cs[i], group.delay[i]
    others = [
        column[:i] + column[i + 1:] for column in _columns(group)
    ]
    network.unwire(node.node, child, item_id, c)
    assert child not in group.child
    assert list(_columns(group)) == others
    network.wire(node.node, child, item_id, c, 42.0)
    j = group.child.index(child)
    assert (group.cs[j], group.last[j], group.delay[j], group.last_seq[j]) == (
        c, 42.0, delay, 0,
    )


def test_anti_entropy_heads_read_the_dependents_columns():
    supervisor_end, worker_end = multiprocessing.Pipe()
    try:
        shard = _Shard(0, FleetSpec(config=CLIENTS, n_workers=1), worker_end)
        network = shard.network
        assert run_live(CLIENTS, network=network).counters.client_messages > 0
        for parent in (network.source_node.node, *network.repositories):
            for item_id, group in network._sender(parent).edges.items():
                for i, child in enumerate(group.child):
                    heads = shard._parent_heads_for(parent, child)
                    assert heads[item_id] == (group.last_seq[i], group.last[i])
    finally:
        supervisor_end.close()
        worker_end.close()
