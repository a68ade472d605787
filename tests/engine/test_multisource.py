"""Tests for the multi-source extension."""

import pytest

from repro.engine.config import SCALE_PRESETS
from repro.engine.multisource import (
    MultiSourceSimulation,
    build_multisource_setup,
    run_multisource_simulation,
)
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def config():
    return SCALE_PRESETS["tiny"].with_(
        n_items=8, trace_samples=500, offered_degree=6, t_percent=80.0
    )


@pytest.fixture(scope="module")
def multi(config):
    return build_multisource_setup(config, n_sources=3)


def test_sources_are_distinct_nodes(multi):
    assert len(set(multi.sources)) == 3
    assert multi.sources[0] == multi.base.source


def test_items_partitioned_round_robin(multi, config):
    owned = [multi.items_of(s) for s in multi.sources]
    all_items = sorted(i for items in owned for i in items)
    assert all_items == list(range(config.n_items))
    # Round-robin: every source owns 8/3 -> 2 or 3 items.
    assert all(2 <= len(items) <= 3 for items in owned)


def test_every_tree_is_valid_and_rooted_at_its_source(multi):
    for source in multi.sources:
        graph = multi.graphs[source]
        assert graph.source == source
        graph.validate()


def test_every_interest_served_by_the_owning_tree(multi):
    for repo, profile in multi.base.profiles.items():
        for item_id in profile.requirements:
            owner = multi.item_owner[item_id]
            graph = multi.graphs[owner]
            assert item_id in graph.nodes[repo].receive_c


def test_shared_budgets_respected_across_trees(multi, config):
    degree = multi.base.effective_degree
    for repo in multi.base.repositories:
        used = sum(
            multi.graphs[s].nodes[repo].n_dependents
            for s in multi.sources
            if repo in multi.graphs[s].nodes
        )
        assert used <= degree


def test_simulation_runs_and_scores(config, multi):
    result = MultiSourceSimulation(multi).run()
    assert 0.0 <= result.loss_of_fidelity <= 100.0
    assert result.messages > 0
    assert result.extras["sources"] == multi.sources


@pytest.mark.parametrize("policy", ["distributed", "centralized"])
@pytest.mark.parametrize("n_sources", [1, 3])
def test_engine_equals_the_reference_oracle(config, n_sources, policy):
    """Multi-source runs on the engine; the per-event oracle, handed the
    same per-source trees, must agree on everything."""
    from repro.engine.oracle import DisseminationSimulation

    multi = build_multisource_setup(config.with_(policy=policy), n_sources)
    engine = MultiSourceSimulation(multi)
    oracle = DisseminationSimulation(multi.base, trees=engine._graphs())
    result, reference = engine.run(), oracle.run()
    assert {k: v.hex() for k, v in result.extras["per_pair_loss"].items()} == {
        k: v.hex() for k, v in reference.extras["per_pair_loss"].items()
    }
    # The multi-source class's own two additions to the result.
    for key in ("sources", "item_owner"):
        reference.extras[key] = result.extras[key]
    assert result == reference
    assert result.messages > 0


def test_one_source_matches_single_source_engine(config):
    from repro.engine.simulation import run_simulation

    single = run_simulation(config)
    multi = run_multisource_simulation(config, 1)
    # One "multi"-source run degenerates to the plain engine... except
    # LeLA's augmentation rng stream differs; losses must agree closely.
    assert multi.loss_of_fidelity == pytest.approx(
        single.loss_of_fidelity, abs=1.0
    )


def test_more_sources_never_increase_source_load_concentration(config):
    one = run_multisource_simulation(config, 1)
    four = run_multisource_simulation(config, 4)
    busiest_one = one.counters.busiest_sender()[1]
    busiest_four = four.counters.busiest_sender()[1]
    assert busiest_four <= busiest_one


def test_invalid_source_count_rejected(config):
    with pytest.raises(ConfigurationError):
        build_multisource_setup(config, 0)


def test_too_many_sources_rejected():
    config = SCALE_PRESETS["tiny"].with_(
        n_repositories=3, n_routers=2, n_items=4, trace_samples=300
    )
    with pytest.raises(ConfigurationError):
        build_multisource_setup(config, 5)


def test_deterministic(config):
    a = run_multisource_simulation(config, 2)
    b = run_multisource_simulation(config, 2)
    assert a.loss_of_fidelity == b.loss_of_fidelity
    assert a.messages == b.messages
