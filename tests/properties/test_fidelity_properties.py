"""The chunked scoring kernel equals the per-pair reference, bit for bit.

:func:`repro.core.fidelity.violation_times` merges each job's
breakpoints without a sort and sums each job's violated widths over its
own slice of a shared array; ``tests/core/reference_fidelity.py`` is
the per-pair sort-and-search scorer it replaced.  Every draw here lives
on a coarse time grid and a small value set, so the cases a merge gets
wrong are the common ones: a receive time equal to a source time, two
deliveries at one instant, a breakpoint on the window's edge, and a
deviation exactly equal to the tolerance (a tenth of a second off the
grid keeps some widths inexact floats).  Windows start after a log's
first entries or end before its last; pairs carry several scoring
segments; the chunk budget is shrunk so that a run's jobs fall into many
chunks, and a job larger than the budget into one of its own.  Long
jobs, where a different summation order would show, are
``tests/core/test_fidelity.py``'s.
"""

from __future__ import annotations

import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from example_counts import examples
from repro.core import fidelity
from repro.core.fidelity import segmented_losses, violation_times

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "core"))
import reference_fidelity as reference  # noqa: E402

_time = st.tuples(st.integers(0, 24), st.sampled_from([0.0, 0.1])).map(
    lambda grid: grid[0] * 0.5 + grid[1]
)
_value = st.integers(0, 4).map(float)
_tolerance = st.sampled_from([0.5, 1.0, 2.0])
_budget = st.sampled_from([1, 3, 16, 64, fidelity.CHUNK_ELEMENTS])


class Steps:
    """A source step function, as a job's ``source``."""

    def __init__(self, times, values):
        self.times = times
        self.values = values


@st.composite
def _step_functions(draw, strict):
    """Ascending times from 0 (strictly for a source trace, ties
    allowed otherwise) and their values."""
    times = sorted(draw(st.lists(_time, min_size=0, max_size=12)))
    times = [0.0] + (sorted(set(times) - {0.0}) if strict else times)
    return times, [draw(_value) for _ in times]


def _flat(times, values):
    return [x for pair in zip(times, values) for x in pair]


def _bits(losses):
    return [None if loss is None else float(loss).hex() for loss in losses]


@st.composite
def _jobs(draw):
    sources = [
        Steps(*draw(_step_functions(strict=draw(st.booleans()))))
        for _ in range(draw(st.integers(1, 3)))
    ]
    jobs = []
    for _ in range(draw(st.integers(1, 8))):
        source = draw(st.sampled_from(sources))
        times, values = draw(_step_functions(strict=False))
        t_start = draw(_time)
        t_end = draw(_time.filter(lambda t: t >= t_start))
        jobs.append((source, times, values, draw(_tolerance), t_start, t_end))
    return jobs


@st.composite
def _segments(draw):
    """One open segment from before the window (the static path), or a
    few ``[start, end-or-None, c]`` segments anywhere, some outside."""
    if draw(st.booleans()):
        return [[0.0, None, draw(_tolerance)]]
    segments = []
    for _ in range(draw(st.integers(1, 4))):
        start = draw(_time)
        end = draw(st.none() | _time.filter(lambda t: t >= start))
        segments.append([start, end, draw(_tolerance)])
    return segments


@given(jobs=_jobs(), budget=_budget)
@settings(max_examples=examples(150), deadline=None)
def test_the_kernel_is_the_per_pair_scorer(jobs, budget):
    expected = [
        reference.violation_time(src.times, src.values, times, values, c, t_start, t_end)
        for src, times, values, c, t_start, t_end in jobs
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fidelity, "CHUNK_ELEMENTS", budget)
        got = violation_times(
            [
                (src, _flat(times, values), c, t_start, t_end)
                for src, times, values, c, t_start, t_end in jobs
            ]
        )
    assert _bits(got) == _bits(expected)


@given(jobs=_jobs(), budget=_budget, data=st.data())
@settings(max_examples=examples(100), deadline=None)
def test_segmented_scoring_is_the_per_pair_scorer(jobs, budget, data):
    pairs = [
        (src, times, values, data.draw(_segments()), t_start, t_end)
        for src, times, values, _c, t_start, t_end in jobs
    ]
    expected = [
        reference.segmented_loss(src.times, src.values, times, values, segments, t0, t1)
        for src, times, values, segments, t0, t1 in pairs
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fidelity, "CHUNK_ELEMENTS", budget)
        got = segmented_losses(
            [
                (src, _flat(times, values), segments, t0, t1)
                for src, times, values, segments, t0, t1 in pairs
            ]
        )
    assert _bits(got) == _bits(expected)
