"""Shard-plan invariants: total, near-equal, deterministic."""

import pytest

from repro.engine.builder import build_setup
from repro.engine.config import SCALE_PRESETS
from repro.errors import ConfigurationError
from repro.fleet.sharding import plan_shards

CONFIG = SCALE_PRESETS["tiny"]


@pytest.fixture(scope="module")
def setup():
    return build_setup(CONFIG)


def test_plan_covers_every_node_exactly_once(setup):
    plan = plan_shards(setup, 3)
    assert set(plan.owner) == set(setup.graph.nodes)
    assert sum(plan.shard_sizes()) == len(setup.graph.nodes)


def test_source_lands_on_worker_zero(setup):
    for workers in (1, 2, 4):
        plan = plan_shards(setup, workers)
        assert plan.worker_of(plan.source) == 0


def test_shard_sizes_are_near_equal(setup):
    for workers in (2, 3, 5, 7):
        sizes = plan_shards(setup, workers).shard_sizes()
        assert len(sizes) == workers
        assert min(sizes) >= 1
        assert max(sizes) - min(sizes) <= 1


def test_single_worker_owns_everything(setup):
    plan = plan_shards(setup, 1)
    assert set(plan.owner.values()) == {0}


def test_plan_is_deterministic(setup):
    assert plan_shards(setup, 4) == plan_shards(setup, 4)


def test_nodes_of_partitions_the_graph(setup):
    plan = plan_shards(setup, 3)
    hosted = [node for worker in range(3) for node in plan.nodes_of(worker)]
    assert sorted(hosted) == sorted(setup.graph.nodes)


def test_worker_count_is_validated(setup):
    with pytest.raises(ConfigurationError):
        plan_shards(setup, 0)
    with pytest.raises(ConfigurationError):
        plan_shards(setup, len(setup.graph.nodes) + 1)
