"""Property-based tests of the substrate invariants."""

from __future__ import annotations

from heapq import heappush

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.fidelity import violation_time
from repro.errors import SimulationError
from repro.sim.events import EventQueue
from repro.sim.kernel import BatchKernel
from repro.sim.queueing import FifoStation


@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=100,
    )
)
@settings(max_examples=200, deadline=None)
def test_event_queue_pops_sorted_and_stable(times):
    q = EventQueue()
    for i, t in enumerate(times):
        q.push(t, lambda: None, i)
    popped = [q.pop() for _ in range(len(times))]
    # Sorted by time...
    assert all(a.time <= b.time for a, b in zip(popped, popped[1:]))
    # ...and stable within equal times.
    for a, b in zip(popped, popped[1:]):
        if a.time == b.time:
            assert a.seq < b.seq


# A coarse time grid, so static/dynamic and dynamic/dynamic ties are the
# common case rather than a measure-zero one.
_grid = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])


@given(
    static=st.lists(_grid, max_size=12).map(sorted),
    # Per drained unit: the (delay, enqueue directly?) of each message
    # it sends.  Units past the script's end send nothing, so the drain
    # always terminates.
    script=st.lists(
        st.lists(st.tuples(_grid, st.booleans()), max_size=3), max_size=30
    ),
)
@settings(max_examples=300, deadline=None)
def test_batch_kernel_merges_both_entry_points_in_time_fifo_order(static, script):
    """``push()`` and a direct ``heappush(kernel.heap, (t,
    kernel.next_seq(), ...))`` are one queue: whatever the interleaving,
    units drain by time, static before dynamic at a tie, dynamic ones in
    the order they were enqueued."""
    kernel = BatchKernel(np.array(static))
    # The reference: every pending unit as (time, 0 = static / 1 =
    # dynamic, FIFO ordinal); the next one out is simply the minimum.
    pending = [(t, 0, index) for index, t in enumerate(static)]
    sends = iter(script)
    enqueued = yielded = 0
    for unit in kernel.drain():
        expected = min(pending)
        pending.remove(expected)
        if type(unit) is int:
            assert (static[unit], 0, unit) == expected
        else:
            time, _seq, ordinal = unit
            assert (time, 1, ordinal) == expected
        yielded += 1
        assert kernel.events_processed == yielded
        assert kernel.now == expected[0]
        for delay, direct in next(sends, ()):
            t = kernel.now + delay
            if direct:
                heappush(kernel.heap, (t, kernel.next_seq(), enqueued))
            else:
                kernel.push(t, enqueued)
            pending.append((t, 1, enqueued))
            enqueued += 1
    assert not pending


@pytest.mark.parametrize("bad", [float("nan"), 4.0])
def test_batch_kernel_push_refuses_nan_and_the_past(bad):
    kernel = BatchKernel(np.array([5.0]))
    assert next(kernel.drain()) == 0 and kernel.now == 5.0
    with pytest.raises(SimulationError, match="cannot schedule"):
        kernel.push(bad, "payload")
    assert not kernel.heap


@given(
    jobs=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        ),
        min_size=1,
        max_size=100,
    )
)
@settings(max_examples=200, deadline=None)
def test_fifo_station_completions_monotone(jobs):
    # Arrivals must be non-decreasing (as the kernel guarantees).
    jobs = sorted(jobs, key=lambda j: j[0])
    station = FifoStation()
    completions = []
    for arrival, service in jobs:
        done = station.submit(arrival, service)
        assert done >= arrival + service  # never finish early
        completions.append(done)
    assert completions == sorted(completions)
    assert station.busy_time <= completions[-1]


@given(
    src=st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=1,
        max_size=40,
    ),
    recv=st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=1,
        max_size=40,
    ),
    c=st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_violation_time_bounded_by_window(src, recv, c):
    window = 100.0
    src_t = np.linspace(0.0, 90.0, len(src))
    recv_t = np.linspace(0.0, 90.0, len(recv))
    violated = violation_time(
        src_t, np.array(src), recv_t, np.array(recv), c, 0.0, window
    )
    assert 0.0 <= violated <= window


@given(
    src=st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=1,
        max_size=40,
    ),
    c=st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_violation_time_zero_when_receiving_own_source(src, c):
    src_t = np.linspace(0.0, 90.0, len(src))
    src_v = np.array(src)
    assert violation_time(src_t, src_v, src_t, src_v, c, 0.0, 100.0) == 0.0


@given(
    c_small=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    scale=st.floats(min_value=1.1, max_value=10.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_violation_time_monotone_in_tolerance(c_small, scale):
    # A laxer tolerance can only shrink the violated time.
    src_t = np.array([0.0, 10.0, 20.0, 30.0])
    src_v = np.array([0.0, 1.0, -1.0, 2.0])
    recv_t = np.array([0.0])
    recv_v = np.array([0.0])
    tight = violation_time(src_t, src_v, recv_t, recv_v, c_small, 0.0, 40.0)
    lax = violation_time(src_t, src_v, recv_t, recv_v, c_small * scale, 0.0, 40.0)
    assert lax <= tight
