"""The discrete-event simulators.

:class:`Simulator` is the one callback heap: ``(time, seq, callback,
args)`` tuples on a plain :mod:`heapq` list, released in ``(time, push
order)`` -- ``seq`` is unique, so the heap orders entries in C and never
compares two callbacks.  The reference engine in
:mod:`repro.engine.oracle` schedules plain callbacks on it (and so does
the tests' per-event pull reference), and the live planes' due queue, :class:`repro.live.wire.DueQueue`, is the same heap
with a wall clock beside the virtual one (its virtual clock is what the
in-process transport runs on).

:class:`BatchKernel` is the object-free sibling: no callback dispatch
per message, just one merge of a pre-sorted static schedule with a
plain tuple heap of dynamic work, in the same ``(time, seq)`` order,
yielded one unit per generator resume.  The engine
(:mod:`repro.engine.simulation`) runs the same merge inline in its own
loop, with no resume per event, and runs a pull run's polls as rows on
that heap; this class stays as the stand-alone
statement of that order, which the perf ledger's frozen
``sim.batchkernel.ns_per_unit`` probe times and the substrate
properties pin.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Iterator

import numpy as np

from repro.errors import SimulationError

__all__ = ["Simulator", "BatchKernel"]


class Simulator:
    """Runs callbacks in ``(time, push order)``; the clock never runs
    backwards.

    Attributes:
        now: Current simulated time in seconds: the time of the callback
            released last.
        events_processed: Callbacks released so far.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self.events_processed = 0
        self._heap: list[tuple[float, int, Callable[..., Any], tuple]] = []
        self._seq = itertools.count().__next__
        self._running = False

    def __len__(self) -> int:
        return len(self._heap)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute simulated ``time``.

        Raises:
            SimulationError: if ``time`` is NaN or in the simulated past.
        """
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}: clock is already at {self.now!r}"
            )
        heapq.heappush(self._heap, (time, self._seq(), callback, args))

    def run(self) -> None:
        """Release callbacks until the heap is empty, callbacks scheduled
        while it runs included, moving the clock to each one's time.

        Raises:
            SimulationError: on re-entrant ``run`` calls.
        """
        if self._running:
            raise SimulationError("Simulator.run is not re-entrant")
        self._running = True
        heap, heappop = self._heap, heapq.heappop
        released = 0
        try:
            while heap:
                self.now, _seq, callback, args = heappop(heap)
                callback(*args)
                released += 1
        finally:
            self.events_processed += released
            self._running = False


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
