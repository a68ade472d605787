"""The due queue's virtual clock releases in ``(due, push order)``.

:meth:`~repro.live.wire.DueQueue.drain` is the clock the in-process
plane runs on, so its order *is* the plane's event order: whatever is
pushed -- ahead of the drain or by an action while it runs, at a later
instant or at the current one -- comes out by due time, ties in push
order.  A driver queues the control timeline, then the source replay,
and deliveries only appear while the queue drains; at one instant that
makes control < update < delivery, the engine's tie-break.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from example_counts import examples
from repro.errors import SimulationError
from repro.live.wire import DueQueue

#: A coarse grid, so equal due times are the common case.
_instants = st.integers(min_value=0, max_value=6).map(lambda n: n * 0.5)

#: What an action pushes when it is released: (delay, its own pushes).
#: Delay 0 lands at the current instant.
_deliveries = st.recursive(
    st.tuples(_instants, st.just(())),
    lambda inner: st.tuples(_instants, st.lists(inner, max_size=3).map(tuple)),
    max_leaves=12,
)
_scheduled = st.lists(
    st.tuples(_instants, st.lists(_deliveries, max_size=3).map(tuple)), max_size=8
)


def _reference(controls, updates) -> list:
    """The order by definition: the pending entry with the least
    ``(due, push order)``, over and over, from a plain list."""
    pending, released = [], []
    pushed = 0

    def push(due, kind, pushes):
        nonlocal pushed
        pending.append((due, pushed, kind, pushes))
        pushed += 1

    for kind, entries in (("control", controls), ("update", updates)):
        for due, pushes in entries:
            push(due, kind, pushes)
    while pending:
        entry = min(pending, key=lambda e: e[:2])
        pending.remove(entry)
        due, order, kind, pushes = entry
        released.append((due, order, kind))
        for delay, more in pushes:
            push(due + delay, "delivery", more)
    return released


@settings(max_examples=examples(200), deadline=None)
@given(controls=_scheduled, updates=_scheduled)
def test_drain_releases_in_due_then_push_order(controls, updates):
    due_queue = DueQueue()
    released = []
    pushed = 0

    def push(due, kind, pushes):
        nonlocal pushed
        due_queue.push(due, act, due, pushed, kind, pushes)
        pushed += 1

    def act(due, order, kind, pushes):
        assert due_queue.now == due  # the clock reads the action's instant
        released.append((due, order, kind))
        for delay, more in pushes:
            push(due + delay, "delivery", more)

    for kind, entries in (("control", controls), ("update", updates)):
        for due, pushes in entries:
            push(due, kind, pushes)
    due_queue.drain()

    assert len(due_queue) == 0 and len(released) == pushed
    assert released == _reference(controls, updates)
    assert released == sorted(released, key=lambda r: r[:2])
    rank = {"control": 0, "update": 1, "delivery": 2}
    by_instant = [(due, rank[kind]) for due, _order, kind in released]
    assert by_instant == sorted(by_instant)  # control < update < delivery


def test_an_action_cannot_schedule_into_the_past_of_the_virtual_clock():
    due_queue = DueQueue()

    def late():
        due_queue.push(4.999, print)

    due_queue.push(5.0, late)
    with pytest.raises(SimulationError, match="clock is already at 5.0"):
        due_queue.drain()
    due_queue.push(5.0, print)  # the current instant is not the past
