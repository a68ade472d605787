"""Unit tests for setup assembly and reuse."""

import numpy as np
import pytest

from repro.engine.builder import build_setup
from repro.engine.config import SCALE_PRESETS


@pytest.fixture(scope="module")
def setup():
    return build_setup(SCALE_PRESETS["tiny"].with_(offered_degree=4))


def test_setup_counts(setup):
    config = setup.config
    assert len(setup.repositories) == config.n_repositories
    assert len(setup.items) == config.n_items
    assert len(setup.traces) == config.n_items
    assert len(setup.profiles) == config.n_repositories


def test_graph_serves_every_profile(setup):
    for repo, profile in setup.profiles.items():
        for item_id in profile.requirements:
            assert item_id in setup.graph.nodes[repo].receive_c


def test_graph_validates(setup):
    budgets = {n: setup.effective_degree for n in setup.graph.nodes}
    setup.graph.validate(max_dependents=budgets)


def test_effective_degree_uncontrolled_is_offered(setup):
    assert setup.effective_degree == 4


def test_controlled_cooperation_clamps():
    config = SCALE_PRESETS["tiny"].with_(
        offered_degree=100, controlled_cooperation=True
    )
    setup = build_setup(config)
    assert setup.effective_degree < 100
    assert setup.effective_degree >= 1


def test_controlled_never_exceeds_offered():
    config = SCALE_PRESETS["tiny"].with_(
        offered_degree=2, controlled_cooperation=True
    )
    assert build_setup(config).effective_degree <= 2


def test_comm_target_retargets_network():
    config = SCALE_PRESETS["tiny"].with_(comm_target_ms=80.0)
    setup = build_setup(config)
    assert setup.avg_comm_delay_ms == pytest.approx(80.0)


def test_comm_target_zero_gives_zero_delays():
    config = SCALE_PRESETS["tiny"].with_(comm_target_ms=0.0)
    setup = build_setup(config)
    assert setup.avg_comm_delay_ms == 0.0


def test_zero_link_delay_mean_gives_zero_delays():
    config = SCALE_PRESETS["tiny"].with_(link_delay_mean_ms=0.0)
    setup = build_setup(config)
    assert setup.network.mean_repo_delay_ms() == 0.0


def test_build_is_deterministic():
    config = SCALE_PRESETS["tiny"]
    a, b = build_setup(config), build_setup(config)
    assert np.array_equal(a.network.topology.edges, b.network.topology.edges)
    for item_id in a.traces:
        assert np.array_equal(a.traces[item_id].values, b.traces[item_id].values)
    assert {r: p.requirements for r, p in a.profiles.items()} == {
        r: p.requirements for r, p in b.profiles.items()
    }


def test_reuse_shares_unchanged_pieces(setup):
    # Degree change: network, traces, interests all reusable.
    other = build_setup(setup.config.with_(offered_degree=2), base=setup)
    assert other.network is setup.network
    assert other.traces is setup.traces
    assert other.profiles is setup.profiles
    assert other.graph is not setup.graph


def test_reuse_returns_a_base_built_for_the_same_config(setup):
    # Setups are read-only, so an exact match is shared whole.
    assert build_setup(setup.config, base=setup) is setup
    assert build_setup(setup.config.with_(), base=setup) is setup


def test_reuse_rebuilds_interests_on_t_change(setup):
    other = build_setup(setup.config.with_(t_percent=10.0), base=setup)
    assert other.network is setup.network
    assert other.traces is setup.traces
    assert other.profiles is not setup.profiles


def test_reuse_rescales_network_on_comm_target_change(setup):
    first = build_setup(setup.config.with_(comm_target_ms=30.0), base=setup)
    second = build_setup(first.config.with_(comm_target_ms=60.0), base=first)
    assert second.avg_comm_delay_ms == pytest.approx(60.0)
    # Same topology object family: edges identical.
    assert np.array_equal(
        second.network.topology.edges, setup.network.topology.edges
    )


def test_reuse_ignored_on_seed_change(setup):
    other = build_setup(setup.config.with_(seed=999), base=setup)
    assert other.network is not setup.network
    assert other.traces is not setup.traces


def test_client_blocks_are_ascending_read_only_and_above_the_repository(setup):
    """What the batch engine's ``Staircase`` rests on: an ascending
    column it can view without copying, every client at most as
    stringent as the copy its repository receives."""
    clients = build_setup(setup.config.with_(clients_per_repository=40), base=setup)
    blocks = clients.client_tolerances
    subscribed = [p for p in clients.profiles.values() if p.requirements]
    assert sum(len(tols) for tols in blocks.values()) == 40 * len(subscribed)
    for (repo, item_id), tols in blocks.items():
        c_repo = clients.profiles[repo].requirements[item_id]
        assert np.all(tols[:-1] <= tols[1:])
        assert not tols.flags.writeable
        assert memoryview(tols).readonly
        assert c_repo <= tols[0] and tols[-1] < 2.0 * c_repo
