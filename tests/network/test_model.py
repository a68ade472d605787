"""Unit tests for the NetworkModel facade."""

import numpy as np
import pytest

from repro.network.model import build_network


@pytest.fixture(scope="module")
def network():
    return build_network(10, 40, np.random.default_rng(0))


def test_delay_units(network):
    assert network.delay_s(0, 1) == pytest.approx(network.delay_ms(0, 1) / 1000.0)


def test_source_is_node_zero(network):
    assert network.source == 0


def test_mean_repo_delay_positive_and_sane(network):
    mean = network.mean_repo_delay_ms()
    assert 5.0 < mean < 200.0


def test_repo_hop_counts_sane(network):
    logical = range(1 + network.topology.n_repositories)
    hops = [network.routing.hops[u, v] for u in logical for v in logical if u != v]
    assert 1.0 < sum(hops) / len(hops) < 20.0


def test_scaled_delays_scales_everything(network):
    target = network.topology.delays_ms.mean() * 2.0
    scaled = network.scaled_delays(target)
    assert scaled.topology.delays_ms.mean() == pytest.approx(target)
    assert scaled.delay_ms(0, 5) == pytest.approx(2.0 * network.delay_ms(0, 5))
    assert scaled.hops(0, 5) == network.hops(0, 5)


def test_scaled_delays_to_zero(network):
    zero = network.scaled_delays(0.0)
    assert zero.delay_ms(0, 5) == 0.0
    assert zero.mean_repo_delay_ms() == 0.0


def test_with_repo_mean_delay_hits_target(network):
    for target in (10.0, 50.0, 125.0):
        retargeted = network.with_repo_mean_delay(target)
        assert retargeted.mean_repo_delay_ms() == pytest.approx(target)


def test_with_repo_mean_delay_zero(network):
    assert network.with_repo_mean_delay(0.0).mean_repo_delay_ms() == 0.0


def test_chained_rescale_is_bit_identical_to_direct(network):
    """Rescaling always starts from the raw network, so a chain of
    rescales lands on exactly the same bits as a single rescale -- the
    property that lets sweep recycling stay bit-identical to fresh
    builds regardless of which configs a worker saw before."""
    direct = network.with_repo_mean_delay(100.0)
    chained = (
        network.with_repo_mean_delay(5.0)
        .with_repo_mean_delay(40.0)
        .with_repo_mean_delay(100.0)
    )
    assert np.array_equal(direct.routing.dist_ms, chained.routing.dist_ms)
    assert np.array_equal(direct.topology.delays_ms, chained.topology.delays_ms)
    assert direct.raw is network
    assert chained.raw is network


def test_rescaled_copies_share_the_raw_link_set_and_hop_table(network):
    scaled = network.with_repo_mean_delay(40.0).with_repo_mean_delay(80.0)
    assert scaled.topology.edges is network.topology.edges
    assert scaled.routing.hops is network.routing.hops
    assert not network.topology.edges.flags.writeable
    assert not network.routing.hops.flags.writeable


def test_rescale_from_zero_scaled_copy_stays_zero(network):
    """Scaling up from a zero-collapsed copy keeps the old semantics:
    a zero network stays zero (the idealised-network case must not be
    silently resurrected by the raw reference)."""
    zero = network.with_repo_mean_delay(0.0)
    assert zero.with_repo_mean_delay(50.0).mean_repo_delay_ms() == 0.0
    assert zero.scaled_delays(50.0).mean_repo_delay_ms() == 0.0


def test_retarget_is_uniform(network):
    retargeted = network.with_repo_mean_delay(50.0)
    factor = 50.0 / network.mean_repo_delay_ms()
    assert retargeted.delay_ms(0, 3) == pytest.approx(factor * network.delay_ms(0, 3))


def test_scaling_does_not_mutate_original(network):
    before = network.delay_ms(0, 1)
    network.with_repo_mean_delay(99.0)
    assert network.delay_ms(0, 1) == before


def test_repository_ids_exposed(network):
    assert list(network.repository_ids) == list(range(1, 11))
