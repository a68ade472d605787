"""Merging worker reports: conservation restored, never fabricated."""

import pytest

from repro.core.fidelity import FidelityAccumulator
from repro.core.metrics import CostCounters
from repro.errors import SimulationError
from repro.fleet.supervisor import merge_reports
from repro.fleet.worker import WorkerReport


def _report(worker, sent=0, delivered=0, dropped=0, **kwargs):
    return WorkerReport(
        worker=worker, sent=sent, delivered=delivered, dropped=dropped, **kwargs
    )


def test_cross_worker_counts_only_conserve_in_the_sum():
    # Worker 0 sent 10 (6 locally delivered, 4 to the peer); worker 1
    # delivered those 4 plus 2 of its own 3.  One frame is in flight.
    merged = merge_reports(
        [
            _report(0, sent=10, delivered=6, events_processed=9),
            _report(1, sent=3, delivered=6, events_processed=6),
        ]
    )
    assert merged.events_processed == 15  # each worker's releases, added
    assert merged.sent == 13
    assert merged.delivered == 12
    assert merged.dropped == 1  # the in-flight residual, charged as a drop
    assert merged.conserved


def test_over_delivery_raises_instead_of_reconciling():
    with pytest.raises(SimulationError):
        merge_reports([_report(0, sent=1, delivered=3)])


def test_repo_plane_residual_becomes_counter_drops():
    counters = CostCounters()
    counters.messages = 8
    counters.deliveries = 5
    report = _report(0, sent=8, delivered=5)
    report.counters = counters
    merged = merge_reports([report])
    assert merged.counters.drops == 3
    assert (
        merged.counters.messages
        == merged.counters.deliveries + merged.counters.drops
    )


def test_repo_plane_over_delivery_raises():
    counters = CostCounters()
    counters.messages = 2
    counters.deliveries = 5
    report = _report(0, sent=5, delivered=5)
    report.counters = counters
    with pytest.raises(SimulationError):
        merge_reports([report])


def test_fidelity_reaccumulates_across_workers():
    a = _report(0, sent=2, delivered=2)
    a.per_pair_loss = {(1, 0): 4.0, (1, 1): 8.0}
    b = _report(1, sent=2, delivered=2)
    b.per_pair_loss = {(2, 0): 1.0}
    merged = merge_reports([a, b])

    expected = FidelityAccumulator()
    for pairs in (a.per_pair_loss, b.per_pair_loss):
        for (repo, item_id), loss in pairs.items():
            expected.add(repo, item_id, loss)
    assert merged.loss_of_fidelity == expected.system_loss()
    assert merged.per_repository_loss == expected.per_repository()
    assert merged.extras["per_pair_loss"] == {
        (1, 0): 4.0, (1, 1): 8.0, (2, 0): 1.0
    }


def test_extras_aggregate_per_worker_health():
    a = _report(0, sent=1, delivered=1, queue_stalls=2, n_local_nodes=3)
    b = _report(1, queue_stalls=1, protocol_errors=1, n_local_nodes=2)
    merged = merge_reports([b, a], extras={"policy": "distributed"})
    assert merged.extras["workers"] == 2
    assert merged.extras["shard_sizes"] == [3, 2]  # indexed by worker id
    assert merged.extras["queue_stalls"] == 3
    assert merged.extras["protocol_errors"] == 1
    assert merged.extras["policy"] == "distributed"
    # Quiet-health keys only appear when something happened.
    assert "heartbeats" not in merged.extras
    assert "reconnects" not in merged.extras


def test_worker_peak_rss_is_the_largest_worker_s_own():
    """Workers are not the caller's children, so the caller's
    ``RUSAGE_CHILDREN`` misses them; the merge keeps their own peak."""
    merged = merge_reports(
        [_report(0, peak_rss_mb=80.5), _report(1, peak_rss_mb=92.25)]
    )
    assert merged.extras["worker_peak_rss_mb"] == 92.25
    assert merge_reports([]).extras["worker_peak_rss_mb"] == 0.0


def test_counters_fold_commutes():
    a = _report(0, sent=3, delivered=3)
    a.counters.messages = 3
    a.counters.deliveries = 3
    a.counters.record_resync(4, 2)
    b = _report(1, sent=1, delivered=1)
    b.counters.messages = 1
    b.counters.deliveries = 1
    ab, ba = merge_reports([a, b]), merge_reports([b, a])
    assert ab.counters.resyncs == ba.counters.resyncs == 1
    assert ab.counters.resync_checks == 4
    assert ab.counters.messages == ba.counters.messages == 4
