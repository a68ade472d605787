"""Unit tests for the callback heap and the guard every scheduler shares."""

import math
import time

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.live.wire import DueQueue
from repro.sim.kernel import BatchKernel, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.events_processed == 0
    assert len(sim) == 0


def test_run_executes_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule_at(3.0, fired.append, 3)
    sim.schedule_at(1.0, fired.append, 1)
    sim.schedule_at(2.0, fired.append, 2)
    assert len(sim) == 3
    sim.run()
    assert fired == [1, 2, 3]
    assert sim.now == 3.0
    assert sim.events_processed == 3 and len(sim) == 0


def test_events_can_schedule_more_events():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.schedule_at(sim.now + 1.0, chain, n + 1)

    sim.schedule_at(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.now == 5.0


def test_run_is_not_reentrant():
    sim = Simulator()
    errors = []

    def recurse():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule_at(1.0, recurse)
    sim.run()
    assert len(errors) == 1


def test_events_processed_accumulates_across_runs():
    sim = Simulator()
    sim.schedule_at(1.0, lambda: None)
    sim.run()
    sim.schedule_at(1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 2


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule_at(1.0, fired.append, i)
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_tie_break_is_fifo_for_events_scheduled_mid_callback():
    """An event scheduled *during* a callback for the current instant
    fires after every same-instant event submitted before it."""
    sim = Simulator()
    fired = []

    def cascade(label):
        fired.append(label)
        if label == "a":
            # Same timestamp as the already-queued "b" and "c".
            sim.schedule_at(sim.now, fired.append, "a-child")

    sim.schedule_at(1.0, cascade, "a")
    sim.schedule_at(1.0, cascade, "b")
    sim.schedule_at(1.0, cascade, "c")
    sim.run()
    assert fired == ["a", "b", "c", "a-child"]


def test_run_on_an_empty_heap_leaves_the_clock():
    sim = Simulator()
    sim.schedule_at(2.0, lambda: None)
    sim.run()
    sim.run()
    assert sim.now == 2.0 and sim.events_processed == 1


def test_len_counts_callbacks_not_yet_released():
    sim = Simulator()
    seen = []
    for t in (1.0, 2.0, 3.0):
        sim.schedule_at(t, lambda: seen.append(len(sim)))
    sim.run()
    assert seen == [2, 1, 0]  # a callback is off the heap when it runs


def test_a_raising_callback_stops_the_run_and_leaves_the_rest_queued():
    sim = Simulator()
    fired = []

    def boom():
        raise RuntimeError("boom")

    sim.schedule_at(1.0, fired.append, 1)
    sim.schedule_at(2.0, boom)
    sim.schedule_at(3.0, fired.append, 3)
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    # The clock stands at the failed callback; only completed ones count.
    assert fired == [1] and sim.now == 2.0
    assert sim.events_processed == 1 and len(sim) == 1
    sim.run()  # not left marked as running
    assert fired == [1, 3] and sim.events_processed == 2


# ---- the push guard, on every scheduler ----
#
# Each factory returns ``(push(time), queued())`` for a fresh scheduler
# whose clock has released one unit at ``clock`` (``None``: never run).


def _simulator(clock):
    sim = Simulator()
    if clock is not None:
        sim.schedule_at(clock, lambda: None)
        sim.run()
    return lambda t: sim.schedule_at(t, lambda: None), lambda: len(sim)


def _batch_kernel(clock):
    kernel = BatchKernel(np.array([] if clock is None else [clock]))
    if clock is not None:
        assert next(kernel.drain()) == 0
    return lambda t: kernel.push(t, "payload"), lambda: len(kernel.heap)


def _due_queue(clock):
    due = DueQueue(time_scale=1.0)
    # The wall clock reads 100 s: far past every time below, and it
    # never moves the guard -- a frame that lands late is due in the
    # past, and simply released at once.
    due.epoch = time.monotonic() - 100.0
    if clock is not None:
        due.push(clock, lambda: None)
        due.drain()
    return lambda t: due.push(t, lambda: None), lambda: len(due)


@pytest.mark.parametrize(
    "scheduler", [_simulator, _batch_kernel, _due_queue],
    ids=["Simulator.schedule_at", "BatchKernel.push", "DueQueue.push"],
)
@pytest.mark.parametrize(
    "clock, at, refused",
    [
        (None, math.nan, {_simulator, _batch_kernel, _due_queue}),
        # The virtual clocks of the simulators start at zero, the due
        # queue's at -inf.
        (None, -0.5, {_simulator, _batch_kernel}),
        (5.0, 4.999, {_simulator, _batch_kernel, _due_queue}),
        (5.0, math.nan, {_simulator, _batch_kernel, _due_queue}),
        (5.0, 5.0, set()),  # the current instant is not the past
    ],
    ids=["nan", "negative-at-the-start", "past-after-a-run", "nan-after-a-run",
         "the-current-instant"],
)
def test_every_scheduler_refuses_nan_and_the_past(scheduler, clock, at, refused):
    push, queued = scheduler(clock)
    if scheduler in refused:
        with pytest.raises(SimulationError, match="cannot schedule at"):
            push(at)
        assert queued() == 0
    else:
        push(at)
        assert queued() == 1
