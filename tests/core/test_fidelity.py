"""Unit tests for the fidelity metric."""

import tracemalloc

import numpy as np
import pytest
import reference_fidelity as reference

from repro.core import fidelity
from repro.core.fidelity import (
    FidelityAccumulator,
    loss_of_fidelity,
    scoring_windows,
    segmented_losses,
    violation_time,
    violation_times,
)
from repro.errors import ConfigurationError


def test_identical_series_have_zero_violation():
    times = np.array([0.0, 1.0, 2.0])
    values = np.array([1.0, 2.0, 3.0])
    assert violation_time(times, values, times, values, 0.1, 0.0, 2.0) == 0.0


def test_constant_offset_above_tolerance_violates_everywhere():
    src_t = np.array([0.0])
    src_v = np.array([1.0])
    recv_t = np.array([0.0])
    recv_v = np.array([2.0])
    assert violation_time(src_t, src_v, recv_t, recv_v, 0.5, 0.0, 10.0) == 10.0
    assert loss_of_fidelity(src_t, src_v, recv_t, recv_v, 0.5, 0.0, 10.0) == 100.0


def test_offset_within_tolerance_never_violates():
    src = (np.array([0.0]), np.array([1.0]))
    recv = (np.array([0.0]), np.array([1.4]))
    assert violation_time(*src, *recv, 0.5, 0.0, 10.0) == 0.0


def test_late_delivery_violates_until_catchup():
    # Source jumps 1.0 -> 2.0 at t=1; the repo hears at t=3.
    src_t = np.array([0.0, 1.0])
    src_v = np.array([1.0, 2.0])
    recv_t = np.array([0.0, 3.0])
    recv_v = np.array([1.0, 2.0])
    assert violation_time(src_t, src_v, recv_t, recv_v, 0.5, 0.0, 10.0) == 2.0
    assert loss_of_fidelity(src_t, src_v, recv_t, recv_v, 0.5, 0.0, 10.0) == 20.0


def test_violation_interval_clipped_by_window():
    src_t = np.array([0.0, 1.0])
    src_v = np.array([1.0, 2.0])
    recv_t = np.array([0.0, 3.0])
    recv_v = np.array([1.0, 2.0])
    # Window [0, 2]: only one second of the stale period falls inside.
    assert violation_time(src_t, src_v, recv_t, recv_v, 0.5, 0.0, 2.0) == 1.0


def test_boundary_deviation_is_not_violation():
    src = (np.array([0.0]), np.array([1.0]))
    recv = (np.array([0.0]), np.array([1.5]))
    assert violation_time(*src, *recv, 0.5, 0.0, 4.0) == 0.0


def test_multiple_stale_periods_sum():
    src_t = np.array([0.0, 1.0, 5.0])
    src_v = np.array([1.0, 2.0, 3.0])
    recv_t = np.array([0.0, 2.0, 7.0])
    recv_v = np.array([1.0, 2.0, 3.0])
    # Stale 1..2 and 5..7 -> 3 seconds total.
    assert violation_time(src_t, src_v, recv_t, recv_v, 0.5, 0.0, 10.0) == 3.0


def test_zero_width_window():
    src = (np.array([0.0]), np.array([1.0]))
    recv = (np.array([0.0]), np.array([9.0]))
    assert violation_time(*src, *recv, 0.5, 0.0, 0.0) == 0.0


def test_invalid_inputs_rejected():
    src = (np.array([0.0]), np.array([1.0]))
    recv = (np.array([0.0]), np.array([1.0]))
    with pytest.raises(ConfigurationError):
        violation_time(*src, *recv, 0.0, 0.0, 1.0)  # non-positive c
    with pytest.raises(ConfigurationError):
        violation_time(*src, *recv, 0.5, 1.0, 0.0)  # inverted window
    with pytest.raises(ConfigurationError):
        violation_time(np.array([]), np.array([]), *recv, 0.5, 0.0, 1.0)


def test_series_must_cover_window_start():
    src = (np.array([5.0]), np.array([1.0]))
    recv = (np.array([0.0]), np.array([1.0]))
    with pytest.raises(ConfigurationError):
        violation_time(*src, *recv, 0.5, 0.0, 10.0)


def test_loss_between_zero_and_hundred():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 30))
        src_t = np.sort(rng.uniform(0, 10, n))
        src_t[0] = 0.0
        src_v = rng.normal(0, 1, n)
        m = int(rng.integers(1, 30))
        recv_t = np.sort(rng.uniform(0, 10, m))
        recv_t[0] = 0.0
        recv_v = rng.normal(0, 1, m)
        loss = loss_of_fidelity(src_t, src_v, recv_t, recv_v, 0.3, 0.0, 10.0)
        assert 0.0 <= loss <= 100.0


def test_violation_never_exceeds_the_window_by_a_float_ulp():
    # Hypothesis's falsifying example for
    # test_violation_time_bounded_by_window: every one of the 27
    # sub-interval widths is violated and their float sum is
    # 100.00000000000001 over a 100 s window.
    src_t = np.linspace(0.0, 90.0, 3)
    recv_t = np.linspace(0.0, 90.0, 26)
    args = (src_t, np.full(3, 2.0), recv_t, np.zeros(26))
    assert violation_time(*args, 1.0, 0.0, 100.0) == 100.0
    assert loss_of_fidelity(*args, 1.0, 0.0, 100.0) == 100.0
    # The duration-weighted form sums the same widths segment by segment.
    segments = [[0.0, 30.0, 1.0], [30.0, 70.0, 1.0], [70.0, None, 1.0]]
    source = Steps(src_t, np.full(3, 2.0))
    log = [x for t in recv_t for x in (t, 0.0)]
    assert segmented_losses([(source, log, segments, 0.0, 100.0)]) == [100.0]


class Steps:
    """A source step function, as a job's ``source``."""

    def __init__(self, times, values):
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)


def test_a_flat_log_scores_as_its_two_columns():
    log = [0.0, 5.0, 1.5, 6.0, 1.5, 7.0]
    src = Steps([0.0, 1.0, 2.0], [5.0, 6.5, 7.0])
    assert violation_times([(src, log, 0.4, 0.0, 2.0)]) == [
        violation_time(src.times, src.values, [0.0, 1.5, 1.5], [5.0, 6.0, 7.0], 0.4, 0.0, 2.0)
    ]


def test_an_empty_log_is_refused():
    with pytest.raises(ConfigurationError, match="at least one sample"):
        violation_times([(Steps([0.0], [1.0]), [], 0.5, 0.0, 1.0)])
    with pytest.raises(ConfigurationError, match="at least one sample"):
        loss_of_fidelity([0.0], [1.0], [], [], 0.5, 0.0, 1.0)


def test_an_odd_length_log_is_refused():
    # One missed append leaves a time without its value.
    with pytest.raises(ConfigurationError, match="3 entries"):
        violation_times([(Steps([0.0], [1.0]), [0.0, 5.0, 1.5], 0.5, 0.0, 1.0)])


def test_jobs_come_back_in_job_order_whatever_their_source():
    a = Steps([0.0, 1.0], [0.0, 4.0])
    b = Steps([0.0, 3.0], [0.0, 4.0])
    late = [0.0, 0.0, 2.0, 4.0]
    jobs = [(a, late, 1.0, 0.0, 4.0), (b, late, 1.0, 0.0, 4.0), (a, [0.0, 0.0], 1.0, 0.0, 4.0)]
    assert violation_times(jobs) == [1.0, 1.0, 3.0]
    assert violation_times(jobs[::-1]) == [3.0, 1.0, 1.0]


def test_zero_width_jobs_score_zero_without_reading_their_series():
    assert violation_times([(Steps([5.0], [1.0]), [], 0.5, 1.0, 1.0)]) == [0.0]


@pytest.mark.parametrize(
    "log, window, message",
    [
        ([0.0, 1.0, 2.0, 1.0, 1.0, 1.0], (0.0, 3.0), "ascending"),
        ([0.0, 1.0, float("nan"), 1.0], (0.0, 3.0), "ascending"),
        ([float("nan"), 1.0], (0.0, 3.0), "primed"),
        ([1.0, 1.0], (0.0, 3.0), "primed"),
    ],
)
def test_receive_times_out_of_order_or_after_the_window_start_are_refused(
    log, window, message
):
    with pytest.raises(ConfigurationError, match=message):
        violation_times([(Steps([0.0], [1.0]), log, 0.5, *window)])


def test_source_times_out_of_order_are_refused():
    with pytest.raises(ConfigurationError, match="ascending"):
        violation_times([(Steps([0.0, 2.0, 1.0], [1.0, 2.0, 3.0]), [0.0, 1.0], 0.5, 0.0, 3.0)])


def test_a_job_larger_than_a_chunk_is_scored_alone(monkeypatch):
    monkeypatch.setattr(fidelity, "CHUNK_ELEMENTS", 4)
    src = Steps(np.arange(10.0), np.arange(10.0) % 3)
    logs = [[0.0, 0.0, 4.5, 1.0], [0.0, 2.0, 2.5, 2.0, 7.5, 0.0]]
    jobs = [(src, log, 0.5, 0.0, 9.0) for log in logs]
    expected = [
        reference.violation_time(src.times, src.values, log[0::2], log[1::2], 0.5, 0.0, 9.0)
        for log in logs
    ]
    assert violation_times(jobs) == expected


def test_segmented_losses_keeps_pair_order_and_never_live_pairs():
    src = Steps([0.0, 1.0], [1.0, 2.0])
    late = [0.0, 1.0, 3.0, 2.0]
    pairs = [
        (src, late, [[0.0, None, 0.5]], 0.0, 10.0),
        (src, late, [[20.0, None, 0.5]], 0.0, 10.0),  # joins after the window
        (src, late, [[0.0, 2.0, 0.5], [2.0, None, 0.5]], 0.0, 10.0),
    ]
    assert segmented_losses(pairs) == [20.0, None, 20.0]


@pytest.mark.parametrize("budget", [64, fidelity.CHUNK_ELEMENTS])
def test_long_jobs_sum_their_violated_widths_as_the_reference_does(monkeypatch, budget):
    # Off-grid times make every width an inexact float, so a job's sum
    # is the reference's only if the same widths are added in the same
    # order (numpy's pairwise sum over the job's own slice).
    monkeypatch.setattr(fidelity, "CHUNK_ELEMENTS", budget)
    rng = np.random.default_rng(7)
    sources = [Steps(np.cumsum(rng.uniform(0.1, 1.0, 80)) - 0.1, rng.normal(size=80))]
    sources.append(Steps(sources[0].times[::2], sources[0].values[::2]))
    jobs, expected = [], []
    for index in range(300):
        src = sources[index % 2]
        recv = np.sort(rng.uniform(src.times[0], src.times[-1], int(rng.integers(1, 60))))
        recv[0] = src.times[0]
        values = rng.normal(size=recv.size)
        t_start = float(rng.uniform(src.times[0], recv[-1]))
        t_end = float(rng.uniform(t_start, src.times[-1]))
        jobs.append((src, np.column_stack((recv, values)).ravel().tolist(), 0.5, t_start, t_end))
        expected.append(
            reference.violation_time(src.times, src.values, recv, values, 0.5, t_start, t_end)
        )
    assert [v.hex() for v in violation_times(jobs)] == [float(v).hex() for v in expected]


def test_scoring_a_sim_deep_sized_run_holds_a_few_mib():
    # The ledger's sim_deep run scores ~1000 pairs of 20 items: 800 trace
    # samples and ~260 deliveries each.  One pass over all of it at once
    # would hold ~47 MiB of numpy temporaries (peak RSS +100 %).  Chunks
    # of CHUNK_ELEMENTS (2**14) breakpoints hold ~1.0-1.2 MiB, of 2**15
    # ~1.7 MiB, and of 2**16 ~3.2 MiB (+3 MiB peak RSS on figure_sweep),
    # which fails.
    rng = np.random.default_rng(5)
    sources = []
    for _ in range(20):
        times = np.cumsum(rng.uniform(0.5, 1.5, 800))
        sources.append(Steps(times - times[0], rng.normal(size=800)))
    pairs = []
    for index in range(1000):
        src = sources[index % 20]
        recv = np.sort(rng.uniform(0.0, src.times[-1], 260))
        recv[0] = 0.0
        log = np.column_stack((recv, rng.normal(size=260))).ravel().tolist()
        pairs.append((src, log, [[0.0, None, 0.5]], 0.0, float(src.times[-1])))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        segmented_losses(pairs)
        transient = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert transient < 2.5 * 2**20, f"scoring held {transient / 2**20:.1f} MiB"


# ----------------------------------------------------------------------
# Float edges: a tolerance or window no score can be read from
# ----------------------------------------------------------------------

_SRC = (np.array([0.0, 1.0]), np.array([1.0, 2.0]))
_RECV = (np.array([0.0, 3.0]), np.array([1.0, 2.0]))


@pytest.mark.parametrize("c", [float("nan"), float("inf")])
def test_a_tolerance_that_is_not_finite_is_refused(c):
    # A NaN or infinite c compares false with every deviation: the
    # pair would read perfect fidelity.
    with pytest.raises(ConfigurationError, match="tolerance c"):
        loss_of_fidelity(*_SRC, *_RECV, c, 0.0, 10.0)


def test_a_nan_window_end_is_refused():
    # It used to filter every breakpoint out and read 0 % loss.
    with pytest.raises(ConfigurationError, match="t_end"):
        loss_of_fidelity(*_SRC, *_RECV, 0.5, 0.0, float("nan"))


def test_an_infinite_window_end_is_refused():
    # It used to divide an infinite violated time by an infinite window.
    with pytest.raises(ConfigurationError, match="t_end"):
        loss_of_fidelity(*_SRC, *_RECV, 0.5, 0.0, float("inf"))


def test_a_nan_window_start_is_refused():
    with pytest.raises(ConfigurationError, match="t_start"):
        violation_time(*_SRC, *_RECV, 0.5, float("nan"), 10.0)


def test_a_segment_that_starts_at_nan_is_refused():
    # It used to make the duration-weighted mean NaN.
    segments = [[float("nan"), 5.0, 0.5], [5.0, None, 0.5]]
    log = [0.0, 1.0, 3.0, 2.0]  # _RECV, flat
    with pytest.raises(ConfigurationError, match="t_start"):
        segmented_losses([(Steps(*_SRC), log, segments, 0.0, 10.0)])


@pytest.mark.parametrize("swap", [False, True])
def test_receive_columns_of_unequal_length_are_refused(swap):
    src = np.array([0.0, 1.0, 2.0]), np.array([5.0, 6.5, 7.0])
    recv = [0.0, 1.5, 1.8], [5.0, 6.0]
    if swap:
        recv = recv[::-1]
    with pytest.raises(ConfigurationError, match="one value per time"):
        loss_of_fidelity(*src, *recv, 0.4, 0.0, 2.0)
    with pytest.raises(ConfigurationError, match="one value per time"):
        violation_time(*recv, *src, 0.4, 0.0, 2.0)  # as the source columns


def test_scoring_windows_span_each_trace_and_clip_to_a_duration():
    class Item:
        def __init__(self, *times):
            self.times = np.array(times)

    traces = {0: Item(1.0, 4.0, 9.0), 1: Item(2.0, 3.0)}
    assert scoring_windows(traces) == {0: (1.0, 9.0), 1: (2.0, 3.0)}
    assert scoring_windows(traces, duration=5.0) == {0: (1.0, 6.0), 1: (2.0, 3.0)}
    assert all(
        type(edge) is float for window in scoring_windows(traces).values() for edge in window
    )


# ----------------------------------------------------------------------
# Accumulator
# ----------------------------------------------------------------------


def test_accumulator_repository_mean():
    acc = FidelityAccumulator()
    acc.add(1, 0, 10.0)
    acc.add(1, 1, 30.0)
    assert acc.repository_loss(1) == 20.0


def test_accumulator_system_mean_over_repositories():
    acc = FidelityAccumulator()
    acc.add(1, 0, 10.0)
    acc.add(1, 1, 30.0)  # repo 1 mean 20
    acc.add(2, 0, 40.0)  # repo 2 mean 40
    assert acc.system_loss() == 30.0


def test_accumulator_empty():
    acc = FidelityAccumulator()
    assert acc.system_loss() == 0.0
    assert acc.repository_loss(99) == 0.0
    assert acc.per_repository() == {}


def test_accumulator_per_repository():
    acc = FidelityAccumulator()
    acc.add(1, 0, 5.0)
    acc.add(2, 0, 50.0)
    assert acc.per_repository() == {1: 5.0, 2: 50.0}


def test_accumulator_rejects_non_percentage():
    acc = FidelityAccumulator()
    with pytest.raises(ConfigurationError):
        acc.add(1, 0, -1.0)
    with pytest.raises(ConfigurationError):
        acc.add(1, 0, 101.0)


def test_per_repository_mapping():
    acc = FidelityAccumulator()
    acc.add(1, 0, 10.0)
    acc.add(2, 0, 20.0)
    assert acc.per_repository() == {1: 10.0, 2: 20.0}
