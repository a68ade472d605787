"""Focused tests of the engine's modelling semantics (DESIGN.md §5)."""

import numpy as np
import pytest

from repro.core.dissemination import make_policy
from repro.core.interests import InterestProfile
from repro.core.items import DataItem
from repro.core.lela import build_d3g
from repro.engine.builder import SimulationSetup, build_setup
from repro.engine.config import SCALE_PRESETS
from repro.engine.oracle import DisseminationSimulation
from repro.network.model import build_network
from repro.traces.model import Trace


def two_hop_setup(comp_delay_ms=0.0, values=(1.0, 1.2, 1.4, 1.5, 1.7, 2.0)):
    """Source -> repo 1 (c=0.3) -> repo 2 (c=0.5) on one item.

    Repo 1 relays the item for repo 2 but also wants it itself; the
    trace is exactly the paper's Figure 4 sequence by default.
    """
    network = build_network(2, 10, np.random.default_rng(3)).scaled_delays(0.0)
    items = [DataItem(item_id=0, name="X")]
    times = np.arange(len(values), dtype=float)
    traces = {0: Trace(name="X", times=times, values=np.array(values))}
    profiles = {
        1: InterestProfile(1, {0: 0.3}),
        2: InterestProfile(2, {0: 0.5}),
    }
    graph = build_d3g(
        [profiles[1], profiles[2]],
        source=0,
        comm_delay_ms=network.delay_ms,
        offered_degree=1,
    )
    config = SCALE_PRESETS["tiny"].with_(
        n_repositories=2, n_items=1, comp_delay_ms=comp_delay_ms,
        offered_degree=1,
    )
    return SimulationSetup(
        config=config,
        network=network,
        items=items,
        traces=traces,
        profiles=profiles,
        graph=graph,
        effective_degree=1,
        avg_comm_delay_ms=0.0,
    )


def test_figure4_chain_is_perfect_under_distributed():
    setup = two_hop_setup()
    result = DisseminationSimulation(setup, make_policy("distributed")).run()
    assert result.loss_of_fidelity == 0.0


def test_figure4_chain_loses_fidelity_under_eq3_only():
    # Drive Q's copy past its tolerance: extend the sequence so the
    # missed 1.4 turns into a real violation interval.
    setup = two_hop_setup(values=(1.0, 1.2, 1.4, 1.5, 1.51, 1.7, 2.0))
    result = DisseminationSimulation(setup, make_policy("eq3_only")).run()
    assert result.loss_of_fidelity > 0.0


def test_delivery_logs_reflect_figure4_forwards():
    setup = two_hop_setup()
    sim = DisseminationSimulation(setup, make_policy("distributed"))
    sim.run()
    q_values = [v for _, v in sim.delivery_log(2, 0)]
    # Priming value plus the guarded forward of 1.4.
    assert q_values[0] == 1.0
    assert 1.4 in q_values


def test_relay_only_items_not_scored_for_fidelity():
    """A repository relaying an item its own users never asked for must
    forward it but not have it counted in its fidelity."""
    network = build_network(2, 10, np.random.default_rng(3)).scaled_delays(0.0)
    items = [DataItem(item_id=0, name="X")]
    times = np.arange(4, dtype=float)
    traces = {0: Trace(name="X", times=times, values=np.array([1.0, 2.0, 3.0, 4.0]))}
    profiles = {
        1: InterestProfile(1, {0: 0.5}),  # re-profiled below
        2: InterestProfile(2, {0: 0.5}),
    }
    # Force the chain 0 -> 1 -> 2 where 1 has *no own interest*: build
    # via LeLA with an augmentation-only need.
    profiles[1] = InterestProfile(1, {0: 0.5})
    graph = build_d3g(
        [InterestProfile(1, {0: 0.5}), InterestProfile(2, {0: 0.5})],
        source=0,
        comm_delay_ms=network.delay_ms,
        offered_degree=1,
    )
    config = SCALE_PRESETS["tiny"].with_(
        n_repositories=2, n_items=1, comp_delay_ms=0.0, offered_degree=1
    )
    # Repo 1's *scored* profile omits the item: relay-only.
    scored_profiles = {
        1: InterestProfile(1, {}),
        2: profiles[2],
    }
    setup = SimulationSetup(
        config=config,
        network=network,
        items=items,
        traces=traces,
        profiles=scored_profiles,
        graph=graph,
        effective_degree=1,
        avg_comm_delay_ms=0.0,
    )
    result = DisseminationSimulation(setup, make_policy("distributed")).run()
    # Repo 1 forwarded (repo 2 received beyond the prime)...
    assert result.counters.deliveries > 0
    # ...but repo 1 contributes no fidelity entries.
    assert 1 not in result.per_repository_loss
    assert 2 in result.per_repository_loss


def test_centralized_source_drops_unneeded_updates():
    # With one lax tolerance, small moves are dropped at the source:
    # checks happen, no messages.
    network = build_network(1, 10, np.random.default_rng(3)).scaled_delays(0.0)
    items = [DataItem(item_id=0, name="X")]
    times = np.arange(3, dtype=float)
    traces = {0: Trace(name="X", times=times, values=np.array([1.0, 1.01, 1.02]))}
    profiles = {1: InterestProfile(1, {0: 0.9})}
    graph = build_d3g(
        [profiles[1]], source=0, comm_delay_ms=network.delay_ms, offered_degree=1
    )
    config = SCALE_PRESETS["tiny"].with_(
        n_repositories=1, n_items=1, comp_delay_ms=0.0, offered_degree=1
    )
    setup = SimulationSetup(
        config=config, network=network, items=items, traces=traces,
        profiles=profiles, graph=graph, effective_degree=1, avg_comm_delay_ms=0.0,
    )
    result = DisseminationSimulation(setup, make_policy("centralized")).run()
    assert result.messages == 0
    assert result.counters.source_checks == 2  # one per source change
    assert result.loss_of_fidelity == 0.0


def test_station_contention_delays_second_item():
    """Two items updating at the same instant at the source must be
    serialised: the second forwarded copy departs one comp delay later."""
    network = build_network(1, 10, np.random.default_rng(3)).scaled_delays(0.0)
    items = [DataItem(0, "A"), DataItem(1, "B")]
    times = np.array([0.0, 1.0])
    traces = {
        0: Trace(name="A", times=times, values=np.array([1.0, 9.0])),
        1: Trace(name="B", times=times, values=np.array([1.0, 9.0])),
    }
    profiles = {1: InterestProfile(1, {0: 0.1, 1: 0.1})}
    graph = build_d3g(
        [profiles[1]], source=0, comm_delay_ms=network.delay_ms, offered_degree=1
    )
    config = SCALE_PRESETS["tiny"].with_(
        n_repositories=1, n_items=2, comp_delay_ms=100.0, offered_degree=1
    )
    setup = SimulationSetup(
        config=config, network=network, items=items, traces=traces,
        profiles=profiles, graph=graph, effective_degree=1, avg_comm_delay_ms=0.0,
    )
    sim = DisseminationSimulation(setup, make_policy("distributed"))
    sim.run()
    arrival_a = sim.delivery_log(1, 0)[-1][0]
    arrival_b = sim.delivery_log(1, 1)[-1][0]
    first, second = sorted([arrival_a, arrival_b])
    assert first == pytest.approx(1.1)   # 1.0 + one 100 ms service
    assert second == pytest.approx(1.2)  # queued behind the first


def test_build_setup_graph_consistent_with_profiles(tiny_setup):
    for repo, profile in tiny_setup.profiles.items():
        state = tiny_setup.graph.nodes[repo]
        for item_id, c in profile.requirements.items():
            assert state.receive_c[item_id] <= c + 1e-12


def test_events_processed_matches_messages_plus_updates():
    setup = build_setup(
        SCALE_PRESETS["tiny"].with_(n_items=4, trace_samples=300, offered_degree=4)
    )
    sim = DisseminationSimulation(setup, make_policy("distributed"))
    result = sim.run()
    n_changes = sum(len(t.changes()) - 1 for t in setup.traces.values())
    assert result.events_processed == n_changes + result.counters.deliveries
