"""Fleet merge and shard-plan invariants over arbitrary assignments.

The fleet counts a cross-worker frame as ``sent`` on its sender and
``delivered`` on its receiver, so no single worker report conserves --
only the merged sum can, and only after the supervisor charges the
in-flight residual to drops.  These properties pin that reconciliation
over arbitrary traffic matrices and shard assignments: however messages
are scattered across workers, the merged result obeys exactly the
invariants the single-process transports end with.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from example_counts import examples
from repro.fleet.sharding import plan_shards
from repro.fleet.supervisor import merge_reports
from repro.fleet.worker import WorkerReport

# One message: (sender worker, receiver worker, fate).
_FATES = ("delivered", "in-flight", "dropped")


@st.composite
def _traffic(draw):
    n_workers = draw(st.integers(min_value=1, max_value=5))
    messages = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_workers - 1),
                st.integers(0, n_workers - 1),
                st.sampled_from(_FATES),
            ),
            max_size=60,
        )
    )
    return n_workers, messages


@given(_traffic())
@settings(max_examples=examples(200), deadline=None)
def test_merged_counters_conserve_over_any_shard_assignment(traffic):
    n_workers, messages = traffic
    reports = [WorkerReport(worker=w) for w in range(n_workers)]
    for sender, receiver, fate in messages:
        reports[sender].sent += 1
        reports[sender].counters.messages += 1
        if fate == "delivered":
            reports[receiver].delivered += 1
            reports[receiver].counters.deliveries += 1
        elif fate == "dropped":
            reports[sender].dropped += 1
            reports[sender].counters.drops += 1
        # in-flight: counted nowhere else; the merge must reconcile it.

    merged = merge_reports(reports)
    assert merged.sent == len(messages)
    assert merged.sent == merged.delivered + merged.dropped
    assert merged.conserved
    assert (
        merged.counters.messages
        == merged.counters.deliveries + merged.counters.drops
    )
    in_flight = sum(1 for _s, _r, fate in messages if fate == "in-flight")
    explicit = sum(1 for _s, _r, fate in messages if fate == "dropped")
    assert merged.dropped == explicit + in_flight


@given(_traffic())
@settings(max_examples=examples(100), deadline=None)
def test_merge_is_independent_of_report_order(traffic):
    n_workers, messages = traffic
    reports = [WorkerReport(worker=w) for w in range(n_workers)]
    for sender, receiver, fate in messages:
        reports[sender].sent += 1
        if fate == "delivered":
            reports[receiver].delivered += 1
        elif fate == "dropped":
            reports[sender].dropped += 1
    forward = merge_reports(list(reports))
    backward = merge_reports(list(reversed(reports)))
    assert (forward.sent, forward.delivered, forward.dropped) == (
        backward.sent, backward.delivered, backward.dropped
    )
    assert forward.extras["shard_sizes"] == backward.extras["shard_sizes"]


@given(st.integers(min_value=1, max_value=21))
@settings(max_examples=examples(21), deadline=None)
def test_shard_plan_is_total_and_balanced(tiny_setup, n_workers):
    n_nodes = len(tiny_setup.graph.nodes)
    if n_workers > n_nodes:
        pytest.skip("more workers than nodes is a configuration error")
    plan = plan_shards(tiny_setup, n_workers)
    assert set(plan.owner) == set(tiny_setup.graph.nodes)
    sizes = [len(plan.nodes_of(w)) for w in range(n_workers)]
    assert sum(sizes) == n_nodes
    assert min(sizes) >= 1
    assert max(sizes) - min(sizes) <= 1
    assert plan.worker_of(plan.source) == 0
