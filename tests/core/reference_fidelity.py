"""The per-pair scorer that ``repro.core.fidelity``'s kernel is held equal to.

Loss of fidelity was computed this way, one (repository, item) pair at a
time, before the kernel scored a whole run's pairs in chunks: merge the
two step functions' breakpoints with a sort, read both functions at
every breakpoint with two binary searches, and sum the violated widths.
The kernel must give the same float, bit for bit, on every input the
reference accepts.

None of this runs outside the tests.
"""

from __future__ import annotations

import numpy as np


def _step_values_at(times, values, query):
    """A right-continuous step function at ``query`` (last of each tie)."""
    return values[np.searchsorted(times, query, side="right") - 1]


def violation_time(source_times, source_values, recv_times, recv_values, c, t_start, t_end):
    """Total time in ``[t_start, t_end]`` where ``|S(t) - R(t)| > c``."""
    if t_end == t_start:
        return 0.0
    source_times = np.asarray(source_times, dtype=float)
    source_values = np.asarray(source_values, dtype=float)
    recv_times = np.asarray(recv_times, dtype=float)
    recv_values = np.asarray(recv_values, dtype=float)
    breaks = np.concatenate(([t_start], source_times, recv_times, [t_end]))
    breaks.sort()
    distinct = np.empty(breaks.size, dtype=bool)
    distinct[0] = True
    np.not_equal(breaks[1:], breaks[:-1], out=distinct[1:])
    breaks = breaks[distinct & (breaks >= t_start) & (breaks <= t_end)]
    if breaks.size < 2:
        return 0.0
    starts = breaks[:-1]
    widths = breaks[1:] - starts
    deviation = np.abs(
        _step_values_at(source_times, source_values, starts)
        - _step_values_at(recv_times, recv_values, starts)
    )
    return min(float(widths[deviation > c].sum()), t_end - t_start)


def loss_of_fidelity(source_times, source_values, recv_times, recv_values, c, t_start, t_end):
    """Loss of fidelity in percent over the window (0 = perfect)."""
    if t_end <= t_start:
        return 0.0
    violated = violation_time(
        source_times, source_values, recv_times, recv_values, c, t_start, t_end
    )
    return min(100.0 * violated / (t_end - t_start), 100.0)


def segmented_loss(source_times, source_values, recv_times, recv_values, segments, t0, t1):
    """Duration-weighted loss over the intervals a requirement was live."""
    if len(segments) == 1 and segments[0][0] <= t0 and segments[0][1] is None:
        return loss_of_fidelity(
            source_times, source_values, recv_times, recv_values, segments[0][2], t0, t1
        )
    weighted = 0.0
    total = 0.0
    for start, end, c_own in segments:
        seg_start = max(float(start), t0)
        seg_end = t1 if end is None else min(float(end), t1)
        if seg_end <= seg_start:
            continue
        seg_loss = loss_of_fidelity(
            source_times, source_values, recv_times, recv_values, c_own, seg_start, seg_end
        )
        weighted += seg_loss * (seg_end - seg_start)
        total += seg_end - seg_start
    if total <= 0.0:
        return None
    return min(weighted / total, 100.0)


def rescore(traces, logs, segments, windows):
    """``(repository, item) -> loss %`` over ``segments``' pairs in order,
    each scored from its delivery log ``logs[pair]`` (flat ``[t0, v0,
    ...]``) inside its item's window; pairs never live are left out."""
    per_pair = {}
    for (repo, item_id), pair_segments in segments.items():
        log = logs[(repo, item_id)]
        trace = traces[item_id]
        t0, t1 = windows[item_id]
        loss = segmented_loss(
            trace.times, trace.values, log[0::2], log[1::2], pair_segments, t0, t1
        )
        if loss is not None:
            per_pair[(repo, item_id)] = loss
    return per_pair
