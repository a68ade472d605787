"""The discrete-event simulators.

A :class:`Simulator` owns a clock and an :class:`~repro.sim.events.EventQueue`
and runs callbacks in simulated-time order.  It is deliberately minimal:
the reference engine in :mod:`repro.engine.oracle` schedules plain
callbacks rather than using coroutine processes, which keeps the hot loop
fast enough for the paper-scale experiments.

:class:`BatchKernel` is the object-free sibling used by the engine
(:mod:`repro.engine.simulation`): no :class:`~repro.sim.events.
Event` object and no callback dispatch per message, just one merge of
the run's pre-sorted source-update schedule with a plain tuple heap of
in-flight deliveries, in the scalar kernel's exact ``(time, seq)``
order.  It is a merge and nothing more -- the engine's loop owns the
work per unit and pushes onto the kernel's heap itself.

The live planes keep the same order and the same push guard on their
own heap, :class:`repro.live.wire.DueQueue`, whose virtual clock
(``drain()``) is what the in-process transport runs on.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Iterator

import numpy as np

from repro.errors import SimulationError
from repro.sim.events import Event, EventQueue

__all__ = ["Simulator", "BatchKernel"]


class Simulator:
    """Runs events in non-decreasing simulated-time order.

    The clock only moves when events fire; it never runs backwards.
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._events_processed = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of live events still scheduled."""
        return len(self._queue)

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now.

        Raises:
            SimulationError: if ``delay`` is negative or NaN.
        """
        if delay != delay or delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay!r}")
        return self._queue.push(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``.

        Raises:
            SimulationError: if ``time`` is in the simulated past.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time!r}: clock is already at {self._now!r}"
            )
        return self._queue.push(time, callback, *args)

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event (idempotent)."""
        self._queue.cancel(event)

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Run events until the queue drains, ``until`` passes, or a budget.

        Args:
            until: Stop (with the clock advanced to ``until``) once the next
                event would fire strictly after this time.
            max_events: Optional hard cap on events executed by this call;
                a guard against runaway schedules in tests.

        Returns:
            The number of events executed by this call.

        Raises:
            SimulationError: on re-entrant ``run`` calls.
        """
        if self._running:
            raise SimulationError("Simulator.run is not re-entrant")
        self._running = True
        executed = 0
        try:
            while self._queue:
                next_time = self._queue.peek_time()
                if until is not None and next_time > until:
                    self._now = max(self._now, until)
                    break
                if max_events is not None and executed >= max_events:
                    break
                event = self._queue.pop()
                self._now = event.time
                event.callback(*event.args)
                executed += 1
                self._events_processed += 1
            else:
                if until is not None:
                    self._now = max(self._now, until)
        finally:
            self._running = False
        return executed

    def reset(self) -> None:
        """Clear all pending events and rewind the clock to zero."""
        self._queue.clear()
        self._now = 0.0
        self._events_processed = 0


class BatchKernel:
    """Object-free event loop for the vectorized engine.

    Two event sources, merged in simulated-time order:

    - a **static schedule**: the run's full source-update timeline as a
      non-decreasing float array, fixed at construction (the builder
      precomputes it from the traces); and
    - a **dynamic heap** of plain tuples ``(time, seq, *payload)`` for
      in-flight deliveries, pushed while the loop runs.

    :meth:`drain` yields one unit of work at a time: an ``int`` (the
    next static-schedule index) or the pushed ``tuple`` itself.  Ties
    go to the static schedule -- in the scalar kernel every source
    update is scheduled before the first delivery exists, so at equal
    timestamps its lower sequence number wins; deliveries at equal
    timestamps fire in push (FIFO) order via the monotone ``seq``.
    Work pushed *at* the current timestamp while a cohort drains is
    picked up within the same cohort, exactly like the scalar queue.

    Attributes:
        now: Current simulated time in seconds (the last unit's).
        events_processed: Work units drained so far (static + dynamic).
        heap / next_seq: The dynamic heap and its FIFO tie-breaker,
            public so a hot loop can enqueue without a Python-level
            call: ``heappush(kernel.heap, (time, kernel.next_seq(),
            *payload))`` is what :meth:`push` does.  The caller then
            owns push's guard: ``time`` must not be NaN or earlier than
            the unit being processed.
    """

    __slots__ = ("_static_times", "_next_static", "heap", "next_seq", "now",
                 "events_processed")

    def __init__(self, static_times: "np.ndarray") -> None:
        times = np.ascontiguousarray(static_times, dtype=np.float64)
        if times.size and np.any(np.diff(times) < 0):
            raise SimulationError("static schedule must be time-sorted")
        # A list: the drain compares one element per unit, and a float
        # compare costs a fraction of an np.float64 one.
        self._static_times: list[float] = times.tolist()
        self._next_static = 0
        self.heap: list[tuple] = []
        self.next_seq = itertools.count().__next__
        self.now = 0.0
        self.events_processed = 0

    def push(self, time: float, *payload: Any) -> None:
        """Enqueue one dynamic event at absolute simulated ``time``.

        Raises:
            SimulationError: if ``time`` is NaN or in the simulated past.
        """
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}: clock is already at {self.now!r}"
            )
        heapq.heappush(self.heap, (time, self.next_seq()) + payload)

    def drain(self) -> Iterator[Any]:
        """Yield work units in ``(time, FIFO)`` order until both sources dry.

        Static units come out as their schedule index (``int``); dynamic
        units come out as the exact tuple on the heap
        (``(time, seq, *payload)``).  The clock advances to each unit's
        timestamp before it is yielded.  The cursor and the count live
        in locals and are stored back per unit, so a drain abandoned
        midway can be resumed by a fresh call.
        """
        static_times = self._static_times
        n_static = len(static_times)
        heap = self.heap
        heappop = heapq.heappop
        cursor = self._next_static
        done = self.events_processed
        while True:
            if heap and not (
                cursor < n_static and static_times[cursor] <= heap[0][0]
            ):
                unit = heappop(heap)
                self.now = unit[0]
            elif cursor < n_static:
                unit = cursor
                self.now = static_times[cursor]
                self._next_static = cursor = cursor + 1
            else:
                return
            self.events_processed = done = done + 1
            yield unit
