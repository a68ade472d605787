"""The run-wide source-update timeline as numpy arrays.

The engines simulate *changes* (polling repeats carry no information),
and every change of every trace is known before the run starts.  An
:class:`UpdateSchedule` materialises that timeline once -- three
parallel arrays (times, item ids, values), time-sorted with a stable
sort -- so that

- the scalar engine schedules its source events from plain arrays
  instead of per-trace Python tuple iteration, and
- the engine merges the times, as a list and a cursor, with its heap
  of in-flight deliveries.

Ordering contract: within one timestamp, updates appear in the traces'
mapping order (the builder's item order), which is exactly the order the
scalar engine has always scheduled them in -- so the ``(time, seq)``
tie-breaking of both kernels is preserved bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.traces.model import Trace

__all__ = ["UpdateSchedule"]


@dataclass(frozen=True)
class UpdateSchedule:
    """Time-sorted (time, item, value) arrays of every source change.

    Attributes:
        times: Non-decreasing change timestamps (seconds, float64).
        item_ids: Item id per change (int64), parallel to ``times``.
        values: Fresh value per change (float64), parallel to ``times``.
        span: The longest trace's time span -- the run's scoring horizon.
    """

    times: np.ndarray
    item_ids: np.ndarray
    values: np.ndarray
    span: float

    def __post_init__(self) -> None:
        for array in (self.times, self.item_ids, self.values):
            array.flags.writeable = False

    def __len__(self) -> int:
        return int(self.times.size)

    @classmethod
    def from_traces(cls, traces: dict[int, Trace]) -> "UpdateSchedule":
        """Merge every trace's changes into one time-sorted timeline.

        Index 0 of each trace is the priming value every node already
        holds at t=0, so only ``changes()[1:]`` become source events --
        the same slice the engines have always simulated.
        """
        times_parts: list[np.ndarray] = []
        item_parts: list[np.ndarray] = []
        value_parts: list[np.ndarray] = []
        span = 0.0
        for item_id, trace in traces.items():
            changes = trace.changes()
            span = max(span, trace.span)
            times_parts.append(np.asarray(changes.times[1:], dtype=np.float64))
            item_parts.append(
                np.full(len(changes.times) - 1, item_id, dtype=np.int64)
            )
            value_parts.append(np.asarray(changes.values[1:], dtype=np.float64))
        if not times_parts:
            empty = np.empty(0)
            return cls(
                times=empty,
                item_ids=np.empty(0, dtype=np.int64),
                values=empty.copy(),
                span=span,
            )
        times = np.concatenate(times_parts)
        item_ids = np.concatenate(item_parts)
        values = np.concatenate(value_parts)
        # Stable sort: equal timestamps keep traces-mapping order, i.e.
        # the scalar engine's historical scheduling order.
        order = np.argsort(times, kind="stable")
        return cls(
            times=np.ascontiguousarray(times[order]),
            item_ids=np.ascontiguousarray(item_ids[order]),
            values=np.ascontiguousarray(values[order]),
            span=span,
        )
