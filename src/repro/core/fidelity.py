"""Fidelity -- the paper's key metric (Sections 1.1 and 6.2).

Fidelity of a data item at a repository is the fraction of the
observation window during which ``|S(t) - R(t)| <= c`` holds, where ``S``
is the source value (the trace, a step function), ``R`` is the step
function of values *received* at the repository, and ``c`` is the
repository's own (user-level) tolerance.  Repository fidelity is the mean
over its items; system fidelity is the mean over repositories.  Results
are reported as *loss of fidelity* = 100 - fidelity, in percent.

The computation merges the two step functions' breakpoints and sums the
interval lengths where the deviation exceeds ``c`` -- O((m+n) log(m+n))
per (repository, item) pair, vectorised with numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "violation_time",
    "loss_of_fidelity",
    "segmented_loss",
    "unzip_log",
    "scoring_windows",
    "FidelityAccumulator",
]


def unzip_log(log) -> tuple[np.ndarray, np.ndarray]:
    """A flat delivery log ``[t0, v0, t1, v1, ...]`` as its two columns.

    Every plane keeps a pair's receive step function in that layout --
    two ``append`` calls per delivery, no object per delivery -- and
    every scorer unpacks it into the ``recv_times, recv_values``
    arguments of :func:`loss_of_fidelity` / :func:`segmented_loss`: one
    array, sliced ``[0::2]`` and ``[1::2]``.  An empty log gives two
    empty columns, which the scorers reject themselves.

    Raises:
        ConfigurationError: on an odd-length log: a time without its
            value, which one missed ``append`` leaves.
    """
    if len(log) % 2:
        raise ConfigurationError(
            f"a flat delivery log pairs each time with a value, got {len(log)} entries"
        )
    if not log:
        return (), ()
    flat = np.array(log, dtype=float)
    return flat[0::2], flat[1::2]


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


def _step_values_at(
    times: np.ndarray, values: np.ndarray, query: np.ndarray
) -> np.ndarray:
    """Evaluate a right-continuous step function at query points.

    ``times`` must be sorted ascending and ``query[0] >= times[0]``.
    """
    idx = np.searchsorted(times, query, side="right") - 1
    return values[idx]


def violation_time(
    source_times: np.ndarray,
    source_values: np.ndarray,
    recv_times: np.ndarray,
    recv_values: np.ndarray,
    c: float,
    t_start: float,
    t_end: float,
) -> float:
    """Total time in ``[t_start, t_end]`` where ``|S(t) - R(t)| > c``.

    Args:
        source_times / source_values: The source step function (sorted).
        recv_times / recv_values: The repository's receive events
            (sorted); must include a priming entry at or before
            ``t_start``.
        c: The coherency tolerance (strictly positive).
        t_start, t_end: Observation window.

    Raises:
        ConfigurationError: on an empty/invalid window, a non-positive
            tolerance, time and value columns of unequal length, or
            series that do not cover ``t_start``.
    """
    if c <= 0:
        raise ConfigurationError(f"tolerance must be positive, got {c!r}")
    if t_end < t_start:
        raise ConfigurationError(f"empty window [{t_start!r}, {t_end!r}]")
    if t_end == t_start:
        return 0.0
    source_times = np.asarray(source_times, dtype=float)
    source_values = np.asarray(source_values, dtype=float)
    recv_times = np.asarray(recv_times, dtype=float)
    recv_values = np.asarray(recv_values, dtype=float)
    if source_times.size != source_values.size or recv_times.size != recv_values.size:
        raise ConfigurationError(
            "each step function needs one value per time (source "
            f"{source_times.size}/{source_values.size}, recv "
            f"{recv_times.size}/{recv_values.size})"
        )
    if source_times.size == 0 or recv_times.size == 0:
        raise ConfigurationError("both step functions need at least one sample")
    if source_times[0] > t_start or recv_times[0] > t_start:
        raise ConfigurationError(
            "step functions must be defined from t_start "
            f"(source starts {source_times[0]!r}, recv starts {recv_times[0]!r}, "
            f"window starts {t_start!r})"
        )

    # Sorted unique breakpoints, as np.unique gives them, without its
    # wrapper: the concatenation is a fresh array, so it sorts in place.
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
    # The violated widths are a subset of non-negative widths that
    # partition the window, so their true sum cannot exceed it; the
    # floating-point sum can, by an ulp.  Clamping changes no in-range
    # value and keeps the paper metric a percentage.
    return min(float(widths[deviation > c].sum()), t_end - t_start)


def loss_of_fidelity(
    source_times: np.ndarray,
    source_values: np.ndarray,
    recv_times: np.ndarray,
    recv_values: np.ndarray,
    c: float,
    t_start: float,
    t_end: float,
) -> float:
    """Loss of fidelity in percent over the window (0 = perfect)."""
    if t_end <= t_start:
        return 0.0
    violated = violation_time(
        source_times, source_values, recv_times, recv_values, c, t_start, t_end
    )
    # violated <= window, yet fl(100 * v) / w can still round one ulp
    # past 100 when v is within an ulp of w.
    return min(100.0 * violated / (t_end - t_start), 100.0)


def segmented_loss(
    source_times: np.ndarray,
    source_values: np.ndarray,
    recv_times,
    recv_values,
    segments,
    t0: float,
    t1: float,
) -> float | None:
    """Duration-weighted loss over the intervals a requirement was live.

    ``segments`` is a list of ``[start, end-or-None, c_own]`` entries:
    the (repository, item) pair's requirement was live from ``start`` to
    ``end`` (``None`` = still open) at tolerance ``c_own``.  Both the
    simulation engine and the live harness score churned/failed pairs
    through this one function, so the two planes cannot drift apart.

    Returns ``None`` when the requirement was never live inside
    ``[t0, t1]`` (nothing to score); a single open segment covering
    ``t0`` takes the exact code path of the static engine
    (:func:`loss_of_fidelity` over the full window, bit for bit).
    """
    if len(segments) == 1 and segments[0][0] <= t0 and segments[0][1] is None:
        return loss_of_fidelity(
            source_times,
            source_values,
            recv_times,
            recv_values,
            segments[0][2],
            t_start=t0,
            t_end=t1,
        )
    weighted = 0.0
    total = 0.0
    for start, end, c_own in segments:
        seg_start = max(float(start), t0)
        seg_end = t1 if end is None else min(float(end), t1)
        if seg_end <= seg_start:
            continue
        seg_loss = loss_of_fidelity(
            source_times,
            source_values,
            recv_times,
            recv_values,
            c_own,
            t_start=seg_start,
            t_end=seg_end,
        )
        weighted += seg_loss * (seg_end - seg_start)
        total += seg_end - seg_start
    if total <= 0.0:
        return None
    # A weighted mean of percentages; the float sums can overshoot 100
    # by an ulp the same way violation_time's could.
    return min(weighted / total, 100.0)


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

    def system_fidelity(self) -> float:
        """100 - system loss."""
        return 100.0 - self.system_loss()

    def per_repository(self) -> dict[int, float]:
        """Mapping repository -> mean loss."""
        return {r: self.repository_loss(r) for r in self._per_repo}

    def worst_repository(self) -> tuple[int, float] | None:
        """The repository with the highest loss, or None if empty."""
        per = self.per_repository()
        if not per:
            return None
        repo = max(per, key=lambda r: per[r])
        return repo, per[repo]
