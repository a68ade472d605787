"""Shape tests for the workload_sensitivity experiment."""

import pytest

from repro.experiments import api
from repro.experiments.workload_sensitivity import POLICIES

OVERRIDES = dict(n_items=6, trace_samples=400, seed=3913)


def run(jobs=1):
    return api.run_experiment(
        "workload_sensitivity", preset="tiny", jobs=jobs, overrides=OVERRIDES
    )


@pytest.fixture(scope="module")
def grid():
    return run()


def test_covers_all_policies_and_workloads(grid):
    assert [s.label for s in grid.series] == list(POLICIES)
    assert len(grid.xs) == 4
    for series in grid.series:
        assert len(series.ys) == 4


def test_replay_column_matches_table1(grid):
    assert grid.notes["replay == table1 (lossless round-trip)"] is True
    for series in grid.series:
        assert series.ys[3] == series.ys[0]


def test_flooding_sends_the_most_messages_under_every_workload(grid):
    """Flooding forwards every change on every edge; filtering policies
    must undercut it whatever the update dynamics look like."""
    for workload, per_policy in grid.notes["messages"].items():
        for policy, messages in per_policy.items():
            if policy != "flooding":
                assert per_policy["flooding"] > messages, (workload, policy)


def test_bursty_workloads_change_the_cost_picture(grid):
    """Flash crowds thin out total changes (quiet base rate), so every
    policy's message bill drops well below the stationary baseline."""
    messages = grid.notes["messages"]
    for policy in POLICIES:
        assert messages["flash_crowd"][policy] < messages["table1"][policy]


def test_parallel_is_bit_identical_to_serial():
    serial = run(jobs=1)
    parallel = run(jobs=4)
    for s, p in zip(serial.series, parallel.series):
        assert s.label == p.label
        assert s.ys == p.ys
