"""Unit tests for the result container."""

import pytest

from repro.core.metrics import CostCounters
from repro.core.tree import TreeStats
from repro.engine.results import SimulationResult


def make_result(loss=5.0, messages=10):
    counters = CostCounters()
    for _ in range(messages):
        counters.record_message(0, is_source=True)
    counters.record_check(0, is_source=True, count=7)
    return SimulationResult(
        loss_of_fidelity=loss,
        per_repository_loss={1: loss},
        counters=counters,
        tree_stats=TreeStats(
            n_nodes=2,
            n_levels=2,
            max_depth=1,
            mean_depth=1.0,
            max_dependents=1,
            mean_dependents=0.5,
            diameter_hops=1,
        ),
        effective_degree=4,
        avg_comm_delay_ms=25.0,
        events_processed=100,
        sim_span_s=600.0,
    )


def test_fidelity_complement():
    assert make_result(loss=5.0).fidelity == 95.0


def test_message_and_check_accessors():
    result = make_result(messages=10)
    assert result.messages == 10
    assert result.source_checks == 7


def test_summary_mentions_key_numbers():
    text = make_result().summary()
    assert "loss=5.00%" in text
    assert "messages=10" in text
    assert "degree=4" in text


def test_extras_dict_is_writable():
    result = make_result()
    result.extras["anything"] = 42
    assert result.extras["anything"] == 42


@pytest.mark.parametrize(
    "deliveries, drops, conserved",
    [(6, 4, True), (6, 3, False), (6, 5, False)],
    ids=["balanced", "leaked", "over-delivered"],
)
def test_conserved_reads_the_counters(deliveries, drops, conserved):
    """Ten messages sent: conserved only when each one was delivered or
    dropped, neither fewer (a leak) nor more."""
    result = make_result(messages=10)
    result.counters.deliveries = deliveries
    result.counters.drops = drops
    assert result.conserved is conserved
