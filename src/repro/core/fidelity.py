"""Fidelity -- the paper's key metric (Sections 1.1 and 6.2).

Fidelity of a data item at a repository is the fraction of the
observation window during which ``|S(t) - R(t)| <= c`` holds, where ``S``
is the source value (the trace, a step function), ``R`` is the step
function of values *received* at the repository, and ``c`` is the
repository's own (user-level) tolerance.  Repository fidelity is the mean
over its items; system fidelity is the mean over repositories.  Results
are reported as *loss of fidelity* = 100 - fidelity, in percent.

One kernel, :func:`violation_times`, scores a whole run: a list of
jobs ``(source, log, c, t_start, t_end)`` -- one per (repository, item)
pair, or per scoring segment of a pair churn or failures touched --
taken in chunks of at most :data:`CHUNK_ELEMENTS` breakpoints.  Inside a
chunk each job's breakpoints (the window's ends and the source and
receive times strictly inside it) are one contiguous segment of a
shared array, merged without a sort: a receive time's slot is one
``searchsorted`` per source into that source's times plus its rank among
the job's receive times.  Both step functions are read at every distinct
breakpoint from cumulative counts (the last sample of each tie wins),
and each job's violated widths are summed with ``.sum()`` over its own
slice.  A run costs O(breakpoints) array work plus one ``sum`` per job,
not some twenty numpy calls per pair, and every job keeps its own merged
breakpoints and its own sum, so each result is the per-pair
sort-and-search scorer's float bit for bit.

:func:`segmented_losses` is the run-level view the engine, the live
planes and pull score through.  :func:`violation_time` and
:func:`loss_of_fidelity` are the kernel's one-job views, so there is
one implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "CHUNK_ELEMENTS",
    "violation_times",
    "segmented_losses",
    "violation_time",
    "loss_of_fidelity",
    "scoring_windows",
    "FidelityAccumulator",
]

#: Breakpoints (window ends plus source and receive samples) scored per
#: chunk.  A chunk's arrays hold some 70 bytes per breakpoint at their
#: peak and delivery logs become arrays one chunk at a time, so scoring
#: holds about a MiB however large the run.  Measured on the ledger's
#: workloads (2-core x86): 2**14 leaves every workload's peak RSS within
#: 1 MiB of per-pair scoring and scores as fast as 2**16, whose larger
#: arrays are fresh pages each chunk (+3 MiB peak RSS on figure_sweep);
#: 2**13 pays the chunk's fixed numpy calls too often (sim_deep +40 %).
CHUNK_ELEMENTS = 1 << 14


class _Steps(NamedTuple):
    """A step function's columns, as a job's ``source``."""

    times: np.ndarray
    values: np.ndarray


def scoring_windows(
    traces, duration: float | None = None
) -> dict[int, tuple[float, float]]:
    """Each item's observation window ``(t_start, t_end)``: its trace's
    first and last sample, the end clipped to ``duration`` seconds past
    the start when given.  Computed once per item, not once per pair."""
    windows = {}
    for item_id, trace in traces.items():
        t0, t1 = float(trace.times[0]), float(trace.times[-1])
        windows[item_id] = (t0, t1 if duration is None else min(t1, t0 + duration))
    return windows


def _check_job(c, t_start, t_end) -> None:
    """Refuse a tolerance or window edge no score can be read from."""
    if not 0.0 < c < math.inf:
        raise ConfigurationError(f"tolerance c must be positive and finite, got {c!r}")
    _check_window(t_start, t_end)


def _check_window(t_start, t_end) -> None:
    if not math.isfinite(t_start):
        raise ConfigurationError(f"window start t_start must be finite, got {t_start!r}")
    if not math.isfinite(t_end):
        raise ConfigurationError(f"window end t_end must be finite, got {t_end!r}")


def violation_times(jobs) -> list[float]:
    """Seconds in ``[t_start, t_end]`` where ``|S(t) - R(t)| > c``, per job.

    Each job is ``(source, log, c, t_start, t_end)``: ``source`` has
    ascending ``times`` and their ``values`` (a
    :class:`~repro.traces.model.Trace`), ``log`` is a pair's flat
    delivery log ``[t0, v0, t1, v1, ...]`` (ascending times, primed at or
    before ``t_start``), ``c`` the pair's tolerance.  Results come back in
    job order; jobs are scored grouped by source, :data:`CHUNK_ELEMENTS`
    breakpoints at a time.

    Raises:
        ConfigurationError: on a tolerance that is not positive and
            finite, a non-finite or inverted window, an odd-length or
            empty log, time and value columns of unequal length, times
            out of order, or series that do not cover ``t_start``.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    sources, logs, cs, starts, ends = zip(*jobs)
    c = np.array(cs, dtype=float)
    t_start = np.array(starts, dtype=float)
    t_end = np.array(ends, dtype=float)
    valid = (c > 0.0) & (c < math.inf) & np.isfinite(t_start) & np.isfinite(t_end)
    valid &= t_end >= t_start
    if not valid.all():
        index = int(np.argmin(valid))
        _check_job(cs[index], starts[index], ends[index])
        raise ConfigurationError(f"empty window [{starts[index]!r}, {ends[index]!r}]")
    entries = np.fromiter(map(len, logs), dtype=np.intp, count=len(logs))

    # Jobs grouped by source (a chunk searches each of its sources once),
    # cut into chunks of at most CHUNK_ELEMENTS breakpoints; a zero-width
    # window scores 0 without reading its series.
    groups: dict[int, list[int]] = {}
    for index in np.flatnonzero(t_end > t_start).tolist():
        groups.setdefault(id(sources[index]), []).append(index)
    order = [index for group in groups.values() for index in group]
    breakpoints = [int(entries[index]) // 2 + 2 + len(sources[index].times) for index in order]
    violated = np.zeros(len(jobs))

    def score(chunk: list[int]) -> None:
        violated[chunk] = _score_chunk(sources, logs, entries, c, t_start, t_end, chunk)

    lo = size = 0
    for position, count in enumerate(breakpoints):
        if position > lo and size + count > CHUNK_ELEMENTS:
            score(order[lo:position])
            lo, size = position, 0
        size += count
    if order:
        score(order[lo:])
    return violated.tolist()


def _starts(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums: where each of ``counts``' segments starts."""
    starts = np.zeros(counts.size, dtype=np.intp)
    np.cumsum(counts[:-1], out=starts[1:])
    return starts


def _columns(source) -> tuple[np.ndarray, np.ndarray]:
    """A job source's ``times`` and ``values`` as float arrays."""
    times = np.asarray(source.times, dtype=float)
    values = np.asarray(source.values, dtype=float)
    if times.size != values.size:
        raise ConfigurationError(
            f"each step function needs one value per time (source {times.size}/{values.size})"
        )
    if times.size == 0:
        raise ConfigurationError("both step functions need at least one sample")
    return times, values


def _ascending(times: np.ndarray, starts: np.ndarray) -> bool:
    """Whether each segment of ``times`` (beginning at ``starts``) is
    ascending; a NaN is out of order."""
    ordered = times[1:] >= times[:-1]
    ordered[starts[1:] - 1] = True
    return bool(ordered.all())


def _score_chunk(sources, logs, entries, c, t_start, t_end, chunk: list[int]) -> list[float]:
    """Violated seconds of the jobs ``chunk`` indexes (grouped by source),
    from the job columns ``violation_times`` unpacked."""
    entries = entries[chunk]
    if (entries % 2).any():
        bad = int(entries[np.flatnonzero(entries % 2)[0]])
        raise ConfigurationError(
            f"a flat delivery log pairs each time with a value, got {bad} entries"
        )
    if not entries.all():
        raise ConfigurationError("both step functions need at least one sample")
    sources = [sources[index] for index in chunk]
    logs = [logs[index] for index in chunk]
    c, t_start, t_end = c[chunk], t_start[chunk], t_end[chunk]
    n_recv = entries // 2
    recv_starts = _starts(n_recv)
    flat = (
        np.asarray(logs[0], dtype=float)
        if len(logs) == 1
        else np.fromiter(chain.from_iterable(logs), float, count=int(entries.sum()))
    )
    recv_times, recv_values = flat[0::2], flat[1::2]
    if not (recv_times[recv_starts] <= t_start).all():
        raise ConfigurationError("delivery logs must be primed at or before t_start")
    if not _ascending(recv_times, recv_starts):
        raise ConfigurationError("delivery log times must be ascending")

    # The chunk's sources side by side, one run of consecutive jobs each.
    heads = [p for p in range(len(sources)) if not p or sources[p] is not sources[p - 1]]
    runs = [
        (*_columns(sources[lo]), lo, hi)
        for lo, hi in zip(heads, heads[1:] + [len(sources)])
    ]
    all_times = np.concatenate([run[0] for run in runs])
    all_values = np.concatenate([run[1] for run in runs])
    source_sizes = np.array([run[0].size for run in runs], dtype=np.intp)
    source_offsets = _starts(source_sizes)
    if not _ascending(all_times, source_offsets):
        raise ConfigurationError("source times must be ascending")
    offset = np.repeat(source_offsets, np.diff(heads, append=len(sources)))
    if not (all_times[offset] <= t_start).all():
        raise ConfigurationError("source step functions must be defined from t_start")

    # Per job: the source samples at or before t_start (first) and before
    # t_end (stop), from ``offset`` in ``all_times``; the receive samples
    # at or before t_start (primed) and strictly inside the window.
    first = np.empty(len(sources), dtype=np.intp)
    stop = np.empty(len(sources), dtype=np.intp)
    for times, _values, lo, hi in runs:
        first[lo:hi] = np.searchsorted(times, t_start[lo:hi], side="right")
        stop[lo:hi] = np.searchsorted(times, t_end[lo:hi], side="left")
    n_source = stop - first
    below = recv_times <= np.repeat(t_start, n_recv)
    inside = recv_times < np.repeat(t_end, n_recv)
    inside &= ~below
    primed = np.add.reduceat(below, recv_starts, dtype=np.intp)
    n_inside = np.add.reduceat(inside, recv_starts, dtype=np.intp)
    inner_recv = np.compress(inside, recv_times)
    inner_starts = _starts(n_inside)
    del below, inside

    # The merged layout: per job [t_start, interior breakpoints, t_end].
    sizes = n_source + n_inside + 2
    job_first = _starts(sizes)
    job_last = job_first + sizes - 1
    merged = np.empty(int(sizes.sum()))
    is_source = np.ones(merged.size, dtype=bool)
    # A receive time's slot: the source samples below it, plus its rank.
    slot = np.empty(inner_recv.size, dtype=np.intp)
    inner_bounds = [*inner_starts.tolist(), inner_recv.size]
    for times, _values, lo, hi in runs:
        a, b = inner_bounds[lo], inner_bounds[hi]
        slot[a:b] = np.searchsorted(times, inner_recv[a:b], side="left")
    slot += np.arange(inner_recv.size)
    slot += np.repeat(job_first + 1 - inner_starts - first, n_inside)
    merged[slot] = inner_recv
    is_source[slot] = False
    del slot, inner_recv
    merged[job_first] = t_start
    merged[job_last] = t_end
    is_source[job_first] = False
    is_source[job_last] = False
    at_start = offset + first - 1  # the last source sample <= t_start
    gather = np.arange(int(n_source.sum()))
    gather += np.repeat(at_start + 1 - _starts(n_source), n_source)
    merged[np.flatnonzero(is_source)] = all_times.take(gather)
    del gather

    # Both step functions at every breakpoint: the last source and
    # receive samples at or before it, from cumulative counts.  At the
    # last of a run of equal breakpoints the counts include every sample
    # of the tie; that position is where the run's interval starts.
    # Each count restarts at a job's first position from the sample
    # t_start reads: a jump from the previous job's last count.
    source_at = is_source.astype(np.intp)
    recv_at = 1 - source_at  # t_end counts as a receive sample: unused
    del is_source
    source_at[job_first] = at_start
    source_at[job_first[1:]] -= (offset + stop - 1)[:-1]
    np.cumsum(source_at, out=source_at)
    recv_at[job_first] = recv_starts + primed - 1
    recv_at[job_first[1:]] -= (recv_starts + primed + n_inside)[:-1]
    np.cumsum(recv_at, out=recv_at)
    deviation = all_values.take(source_at)
    deviation -= recv_values.take(recv_at, mode="clip")  # t_end's own is unused
    del source_at, recv_at
    np.abs(deviation, out=deviation)
    over = deviation > np.repeat(c, sizes)
    del deviation
    over[:-1] &= merged[1:] != merged[:-1]
    over[job_last] = False  # t_end starts no interval
    spans = np.compress(over[:-1], merged[1:] - merged[:-1])
    bounds = np.cumsum(np.add.reduceat(over, job_first, dtype=np.intp)).tolist()
    violated = []
    lo = 0
    for hi, window in zip(bounds, (t_end - t_start).tolist()):
        # The violated widths partition part of the window, so their
        # true sum cannot exceed it; the float sum can, by an ulp.
        violated.append(min(float(spans[lo:hi].sum()), window) if hi > lo else 0.0)
        lo = hi
    return violated


def _percent(violated: float, t_start: float, t_end: float) -> float:
    # violated <= window, yet fl(100 * v) / w can still round one ulp
    # past 100 when v is within an ulp of w.
    return min(100.0 * violated / (t_end - t_start), 100.0)


def segmented_losses(pairs) -> list[float | None]:
    """Duration-weighted loss of fidelity per pair, in pair order.

    Each pair is ``(source, log, segments, t0, t1)``: ``segments`` a
    list of ``[start, end-or-None, c_own]`` entries -- the pair's
    requirement was live from ``start`` to ``end`` (``None`` = still
    open) at tolerance ``c_own`` -- and ``[t0, t1]`` the item's window.
    A pair gets ``None`` when its requirement was never live inside the
    window (nothing to score); a single open segment covering ``t0`` is
    plain loss of fidelity over the whole window, the static engine's
    score.  Every pair's segments go to one :func:`violation_times`
    call, so engine, live planes and pull score a run in one pass.
    """
    jobs = []
    plans = []
    for source, log, segments, t0, t1 in pairs:
        _check_window(t0, t1)
        parts = []
        for start, end, c_own in segments:
            seg_start = max(float(start), t0)
            seg_end = t1 if end is None else min(float(end), t1)
            if seg_end <= seg_start:
                continue  # not live inside the window (a NaN edge is refused)
            parts.append((len(jobs), seg_start, seg_end))
            jobs.append((source, log, c_own, seg_start, seg_end))
        whole = len(segments) == 1 and segments[0][0] <= t0 and segments[0][1] is None
        plans.append((whole, parts))
    violated = violation_times(jobs)
    losses: list[float | None] = []
    for whole, parts in plans:
        if whole:
            # Plain loss of fidelity over the window, as loss_of_fidelity
            # scores it: an empty window is 0 %, not "never live".
            losses.append(_percent(violated[parts[0][0]], *parts[0][1:]) if parts else 0.0)
            continue
        weighted = 0.0
        total = 0.0
        for index, seg_start, seg_end in parts:
            weighted += _percent(violated[index], seg_start, seg_end) * (seg_end - seg_start)
            total += seg_end - seg_start
        # A weighted mean of percentages; the float sums can overshoot
        # 100 by an ulp the same way a violated time could.
        losses.append(None if total <= 0.0 else min(weighted / total, 100.0))
    return losses


def _one_job(source_times, source_values, recv_times, recv_values):
    """A one-job view's ``(source, log)``: the columns as a step
    function and an interleaved flat log."""
    recv_times = np.asarray(recv_times, dtype=float)
    recv_values = np.asarray(recv_values, dtype=float)
    if recv_times.size != recv_values.size:
        raise ConfigurationError(
            "each step function needs one value per time (recv "
            f"{recv_times.size}/{recv_values.size})"
        )
    log = np.empty(2 * recv_times.size)
    log[0::2] = recv_times
    log[1::2] = recv_values
    return _Steps(source_times, source_values), log


def violation_time(
    source_times: np.ndarray,
    source_values: np.ndarray,
    recv_times: np.ndarray,
    recv_values: np.ndarray,
    c: float,
    t_start: float,
    t_end: float,
) -> float:
    """Total time in ``[t_start, t_end]`` where ``|S(t) - R(t)| > c``:
    one job of :func:`violation_times`, the receive step function given
    as two columns.

    Raises:
        ConfigurationError: as :func:`violation_times` does.
    """
    source, log = _one_job(source_times, source_values, recv_times, recv_values)
    return violation_times([(source, log, c, t_start, t_end)])[0]


def loss_of_fidelity(
    source_times: np.ndarray,
    source_values: np.ndarray,
    recv_times: np.ndarray,
    recv_values: np.ndarray,
    c: float,
    t_start: float,
    t_end: float,
) -> float:
    """Loss of fidelity in percent over the window (0 = perfect; an
    empty or inverted window scores 0)."""
    _check_job(c, t_start, t_end)
    if t_end <= t_start:
        return 0.0
    violated = violation_time(
        source_times, source_values, recv_times, recv_values, c, t_start, t_end
    )
    return _percent(violated, t_start, t_end)


@dataclass
class FidelityAccumulator:
    """Aggregates per-(repository, item) losses into the paper's metric.

    The paper averages item losses within a repository, then repository
    fidelities across the system (Section 6.2).
    """

    _per_repo: dict[int, list[float]] = field(default_factory=dict)

    def add(self, repository: int, item_id: int, loss_percent: float) -> None:
        """Record the loss for one (repository, item) pair."""
        if not 0.0 <= loss_percent <= 100.0 + 1e-9:
            raise ConfigurationError(
                f"loss must be a percentage, got {loss_percent!r}"
            )
        self._per_repo.setdefault(repository, []).append(loss_percent)

    def repository_loss(self, repository: int) -> float:
        """Mean loss over one repository's items."""
        losses = self._per_repo.get(repository)
        if not losses:
            return 0.0
        return sum(losses) / len(losses)

    def system_loss(self) -> float:
        """Mean repository loss over all repositories (the headline metric)."""
        if not self._per_repo:
            return 0.0
        repo_losses = [self.repository_loss(r) for r in self._per_repo]
        return sum(repo_losses) / len(repo_losses)

    def per_repository(self) -> dict[int, float]:
        """Mapping repository -> mean loss."""
        return {r: self.repository_loss(r) for r in self._per_repo}
