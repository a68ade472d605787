"""Every plane keeps a pair's delivery log flat: ``[t0, v0, t1, v1, ...]``.

Two ``append`` calls per delivery and no ``(time, value)`` object: the
engine's delivery and leaf-landing branches, the reconfiguration core's
initial-sync and resync, the reference oracle, the pull baseline and
the live nodes all write the same layout, and the tuple view
(``delivery_log``) and the held value (``current_value``) are read off
it.  A plane that went back to one tuple per delivery fails here.
"""

import pytest

from repro.engine.builder import build_setup
from repro.engine.churn import schedule_for_config
from repro.engine.config import SCALE_PRESETS
from repro.engine.failures import failures_for_config
from repro.engine.pull import PullSimulation, TtrConfig
from repro.engine.simulation import make_simulation
from repro.live.harness import build_live_network, run_live
from repro.live.loadgen import generate_clients

TINY = SCALE_PRESETS["tiny"].with_(offered_degree=4)


def assert_flat(log):
    assert type(log) is list
    assert len(log) >= 2 and len(log) % 2 == 0
    assert all(isinstance(entry, float) for entry in log)
    times = log[0::2]
    assert times == sorted(times)


def assert_engine_layout(sim):
    assert sim._deliveries
    for (node, item_id), log in sim._deliveries.items():
        assert_flat(log)
        assert sim.delivery_log(node, item_id) == list(zip(log[0::2], log[1::2]))
        assert sim._reconfig.current_value(node, item_id) == log[-1]


def test_engine_delivery_and_leaf_landing_branches_append_flat():
    sim = make_simulation(build_setup(TINY))
    sim.run()
    assert_engine_layout(sim)
    # Both appending branches ran: relays take heap deliveries, leaves
    # take landings at the push site.
    fed = {
        not sim._g_cs[sim._gid_of[key]]
        for key, log in sim._deliveries.items()
        if len(log) > 2
    }
    assert fed == {True, False}


def test_engine_initial_sync_and_resync_append_flat():
    base = TINY.with_(n_items=4, trace_samples=400, offered_degree=3, seed=3913)
    config = base.with_(
        churn=schedule_for_config(base, joins=2, departs=1, updates=1),
        failures=failures_for_config(base, crashes=2, partitions=1),
    )
    sim = make_simulation(build_setup(config))
    result = sim.run()
    assert result.counters.reconfigurations > 0
    assert result.counters.resync_messages > 0
    assert_engine_layout(sim)


def test_oracle_appends_flat():
    sim = make_simulation(build_setup(TINY.with_(kernel="scalar")))
    sim.run()
    assert_engine_layout(sim)


def test_pull_appends_flat():
    sim = PullSimulation(build_setup(TINY), TtrConfig(mode="adaptive", ttr_s=5.0))
    sim.run()
    assert sim._deliveries
    assert any(len(log) > 2 for log in sim._deliveries.values())
    for log in sim._deliveries.values():
        assert_flat(log)


@pytest.mark.live
def test_live_repository_and_client_nodes_append_flat():
    network = build_live_network(TINY, clients=generate_clients(TINY, 12))
    run_live(TINY, network=network)
    for node, repo in network.repositories.items():
        for item_id, log in repo.deliveries.items():
            assert_flat(log)
            assert network.reconfig.current_value(node, item_id) == log[-1]
    client_logs = [
        log for client in network.clients.values() for log in client.deliveries.values()
    ]
    assert client_logs and any(len(log) > 2 for log in client_logs)
    for log in client_logs:
        assert_flat(log)
