"""Shared measuring helpers: timing loops, memory, stderr capture, scratch.

Timing on a shared machine.  The sizing machine is a 2-core VM whose
speed moves 10-30% over minutes with what its neighbours do (process CPU
time moves with it, so the cause is contention inside the cores, not
descheduling).  No amount of repetition inside a 15 s run averages that
away, so every end-to-end time is taken by a ``ReferenceClock``: a fixed
calibration loop runs before and after each timed call, and the call's
wall time is divided by how much slower than ``REFERENCE_CALIBRATION_S``
the loop ran around it.  The result reads in seconds *at reference
machine speed*; the raw seconds and the slowdown go to standard error.
The calibration loop calls nothing in the program under test, so no
change to the program can hide in it.
"""

from __future__ import annotations

import heapq
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from benchmarks.ledger.run import ROOT

#: Everything the benchmark writes lands here, inside the checkout;
#: ``.gitignore`` names it.
WORK_DIR = ROOT / ".ledger"

#: Set-up is repeated this often per run and its median reported, so
#: one slow allocation does not read as a set-up regression.
SETUP_REPS = 3

#: What ``calibrate()`` takes on the sizing machine when nothing else
#: runs; times are reported as if it always took this long.
REFERENCE_CALIBRATION_S = 0.24

median = statistics.median


@dataclass
class Outcome:
    """What one pass of one workload produced.

    ``problems`` lists every correctness check that failed; the pass is
    correct when it is empty.  ``attempted``/``failed`` count the
    workload's own operations (repetitions, sweep points, messages).
    """

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def check(self, ok: bool, message: str) -> None:
        """Record ``message`` as a problem unless ``ok``."""
        if not ok:
            self.problems.append(message)


def timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    """Call ``fn``; return its result and the wall seconds it took."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def repeat_for(fn: Callable[[], Any], seconds: float, min_reps: int) -> list[Any]:
    """Call ``fn`` until ``seconds`` have passed and ``min_reps`` are done."""
    results: list[Any] = []
    start = time.perf_counter()
    while len(results) < min_reps or time.perf_counter() - start < seconds:
        results.append(fn())
    return results


_FRAME = {"type": "update", "item_id": 3, "value": 100.125, "seq": 17, "src": 2, "tag": None}


def calibrate() -> float:
    """Wall seconds of a fixed mix of the work the program's planes do:
    a tuple heap, dict and float arithmetic, narrow and wide numpy
    masks, JSON frames.  The same instructions every time: the arrays
    it writes to are its own."""
    start = time.perf_counter()
    narrow = np.linspace(99.0, 101.0, 4)
    wide = np.linspace(99.0, 101.0, 4096)
    heap: list[tuple[float, int, None]] = []
    for i in range(100_000):
        heapq.heappush(heap, ((i * 7919) % 100_003 + 0.5, i, None))
    total = 0.0
    seen = {}
    while heap:
        when, index, _ = heapq.heappop(heap)
        total += when * 0.5
        seen[index & 1023] = total
    for i in range(7_500):
        value = 100.0 + (i % 17) * 0.01
        narrow[np.abs(narrow - value) > 0.05] = value
        np.count_nonzero(np.abs(wide - value) > 0.05)
    for _ in range(7_500):
        json.loads(json.dumps(_FRAME))
    return time.perf_counter() - start


class ReferenceClock:
    """Times calls in seconds at reference machine speed (module docstring).

    Back-to-back calls share the calibration between them; after a
    pause the clock calibrates afresh.
    """

    STALE_S = 0.5

    def __init__(self) -> None:
        self.raw_seconds: list[float] = []
        self.slowdowns: list[float] = []
        self._calibrate()

    def _calibrate(self) -> None:
        self._calibration_s = calibrate()
        self._calibrated_at = time.perf_counter()

    def timed(self, fn: Callable[[], Any]) -> tuple[Any, float]:
        """Call ``fn``; return its result and its reference-speed seconds."""
        if time.perf_counter() - self._calibrated_at > self.STALE_S:
            self._calibrate()
        before = self._calibration_s
        result, raw_s = timed(fn)
        self._calibrate()
        slowdown = (before + self._calibration_s) / 2.0 / REFERENCE_CALIBRATION_S
        self.raw_seconds.append(raw_s)
        self.slowdowns.append(slowdown)
        return result, raw_s / slowdown

    def note(self) -> str:
        """The raw side of what ``timed`` reported, for the log."""
        return (
            f"machine ran at {median(self.slowdowns):.3f}x the reference calibration time "
            f"(min {min(self.slowdowns):.3f}, max {max(self.slowdowns):.3f}); "
            f"raw wall seconds of the {len(self.raw_seconds)} timed calls: "
            + " ".join(f"{s:.4f}" for s in self.raw_seconds)
        )


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (plus reaped children), in MiB."""
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak_kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak_kib / 1024.0


@contextmanager
def captured_stderr(path: Path) -> Iterator[None]:
    """Redirect file descriptor 2 -- ours and our children's -- into ``path``.

    Fleet workers inherit the descriptor, so their teardown tracebacks
    land in the file instead of flooding the report.  If the block
    raises, the captured text is replayed so the real error stays
    visible.
    """
    sys.stderr.flush()
    saved = os.dup(2)
    with open(path, "wb") as sink:
        os.dup2(sink.fileno(), 2)
    raised = True
    try:
        yield
        raised = False
    finally:
        sys.stderr.flush()
        os.dup2(saved, 2)
        os.close(saved)
        if raised:
            sys.stderr.write(path.read_text(errors="replace"))


@contextmanager
def scratch_dir() -> Iterator[Path]:
    """A fresh directory under ``WORK_DIR``, removed on exit."""
    WORK_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="tmp-", dir=WORK_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
