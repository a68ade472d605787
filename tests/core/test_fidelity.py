"""Unit tests for the fidelity metric."""

import numpy as np
import pytest

from repro.core.fidelity import (
    FidelityAccumulator,
    loss_of_fidelity,
    scoring_windows,
    segmented_loss,
    unzip_log,
    violation_time,
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
    assert segmented_loss(*args, segments, 0.0, 100.0) == 100.0


# ----------------------------------------------------------------------
# Accumulator
# ----------------------------------------------------------------------


def test_unzip_log_is_the_two_comprehensions():
    log = [0.0, 5.0, 1.5, 6.0, 1.5, 7.0]
    times, values = unzip_log(log)
    assert list(times) == [log[i] for i in range(0, len(log), 2)]
    assert list(values) == [log[i] for i in range(1, len(log), 2)]
    src = np.array([0.0, 1.0, 2.0]), np.array([5.0, 6.5, 7.0])
    assert loss_of_fidelity(*src, *unzip_log(log), 0.4, 0.0, 2.0) == loss_of_fidelity(
        *src, [0.0, 1.5, 1.5], [5.0, 6.0, 7.0], 0.4, 0.0, 2.0
    )


def test_unzip_log_of_an_empty_log_is_rejected_by_the_scorer():
    assert unzip_log([]) == ((), ())
    with pytest.raises(ConfigurationError, match="at least one sample"):
        loss_of_fidelity([0.0], [1.0], *unzip_log([]), 0.5, 0.0, 1.0)


def test_unzip_log_refuses_an_odd_length_log():
    # One missed append leaves a time without its value.
    with pytest.raises(ConfigurationError, match="3 entries"):
        unzip_log([0.0, 5.0, 1.5])


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
    assert acc.system_fidelity() == 70.0


def test_accumulator_empty():
    acc = FidelityAccumulator()
    assert acc.system_loss() == 0.0
    assert acc.repository_loss(99) == 0.0
    assert acc.worst_repository() is None


def test_accumulator_worst_repository():
    acc = FidelityAccumulator()
    acc.add(1, 0, 5.0)
    acc.add(2, 0, 50.0)
    assert acc.worst_repository() == (2, 50.0)


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
