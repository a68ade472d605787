"""Parallel sweep execution with deterministic result merging.

Every experiment in the reproduction is a parameter sweep: a sequence of
:class:`~repro.engine.config.SimulationConfig` points whose results
become one curve of one figure.  The seed ran every point serially in
one process; this module fans the points out over a
:class:`concurrent.futures.ProcessPoolExecutor` while keeping the output
*bit-identical* to the serial path, whatever the worker count or
completion order.

The determinism guarantee rests on two facts:

- A point fully determines its result.  Every random stream is named
  and derived from ``config.seed``, and setup recycling (``base=`` in
  :func:`~repro.engine.builder.build_setup`) only reuses pieces whose
  governing fields match -- plus the network-rescale path always scales
  from the raw delay arrays (see
  :meth:`~repro.network.model.NetworkModel._uniformly_scaled`), so a
  recycled setup is bit-for-bit the setup a fresh build would produce.
  Worker-local recycling is therefore pure optimisation, never
  observable in the results.
- Merging is by input position, not completion order: :func:`fan_out`
  concatenates its contiguous chunks' results in chunk order, so
  shuffling workers or finish times cannot reorder or alter the output.

Every point builds its setup through :func:`recycled_setup`, which
chains ``base=`` recycling through a per-process memo (``_WORKER_BASE``),
so the expensive pieces -- topology generation, shortest-path routing,
trace synthesis -- are rebuilt only when a chunk actually crosses a
boundary in the governing fields, exactly as in a serial sweep.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Iterable, Sequence

from repro.engine.builder import SimulationSetup, build_setup
from repro.engine.config import SimulationConfig
from repro.engine.results import SimulationResult
from repro.engine.simulation import make_simulation
from repro.errors import ConfigurationError

__all__ = ["fan_out", "recycled_setup", "resolve_jobs", "run_sweep", "simulate"]

#: Per-process setup memo: the last setup built in this process,
#: recycled into the next point's ``build_setup(..., base=...)``.  Lives
#: at module scope so it survives across chunks handed to the same
#: worker.  Never leaves the process, so it cannot leak between jobs
#: counts or affect merged output.
_WORKER_BASE: SimulationSetup | None = None


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value to a concrete worker count.

    ``None`` or ``0`` mean "one worker per available CPU"; anything
    else is used as given.

    Raises:
        ConfigurationError: on a negative worker count.
    """
    if jobs is None or jobs == 0:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # platforms without CPU affinity
            return os.cpu_count() or 1
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs}")
    return jobs


def recycled_setup(config: SimulationConfig) -> SimulationSetup:
    """This process's setup for ``config``, recycled from the last one built.

    Setups are read-only, so every point of a chunk may share one.
    """
    global _WORKER_BASE
    _WORKER_BASE = build_setup(config, base=_WORKER_BASE)
    return _WORKER_BASE


def simulate(config: SimulationConfig) -> SimulationResult:
    """Run one sweep point on this process's recycled setup."""
    return make_simulation(recycled_setup(config)).run()


def _contiguous_chunks(items: Sequence[Any], n_chunks: int) -> list[list[Any]]:
    """Split into at most ``n_chunks`` contiguous, near-equal chunks.

    Contiguity matters: neighbouring sweep points usually differ in one
    field, so a worker's ``base=`` recycling keeps paying off inside its
    chunk just as it does along a serial sweep.
    """
    n = len(items)
    n_chunks = max(1, min(n_chunks, n))
    size, extra = divmod(n, n_chunks)
    chunks: list[list[Any]] = []
    start = 0
    for i in range(n_chunks):
        end = start + size + (1 if i < extra else 0)
        chunks.append(list(items[start:end]))
        start = end
    return chunks


def _run_chunk(chunk: Sequence[SimulationConfig]) -> list[SimulationResult]:
    """Worker-process entry point: run one chunk's points in order."""
    return [simulate(config) for config in chunk]


def fan_out(
    points: Sequence[SimulationConfig], jobs: int | None = 1
) -> list[SimulationResult]:
    """``[simulate(p) for p in points]``, one contiguous chunk per process.

    Args:
        points: The configs, in the order the caller wants results back.
        jobs: Worker processes.  ``1`` runs everything serially
            in-process (no executor, no pickling); ``None`` or ``0`` use
            one worker per available CPU.
    """
    chunks = _contiguous_chunks(points, resolve_jobs(jobs))
    if len(chunks) == 1:
        return _run_chunk(points)
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        return [result for done in pool.map(_run_chunk, chunks) for result in done]


def run_sweep(
    configs: Iterable[SimulationConfig], jobs: int | None = 1, cache=None
) -> list[SimulationResult]:
    """Run every config and return results aligned to the input order.

    Args:
        configs: The sweep points, in the order the caller wants the
            results back.
        jobs: Worker processes to fan out over (see :func:`fan_out`).
        cache: Optional result store with ``get(key)`` and ``put(key,
            value)`` (an :class:`~repro.experiments.cache.ResultCache`),
            keyed ``("sim", config)``: a config it holds is answered
            from it, and every config simulated is stored in it.

    Returns:
        One :class:`SimulationResult` per input config, in input order.
        Identical configs appearing more than once are simulated once
        and share one result object.
    """
    ordered = list(configs)
    # Frozen dataclass => hashable; dict keys keep first-appearance order.
    results = dict.fromkeys(ordered)
    if cache is not None:
        for config in results:
            results[config] = cache.get(("sim", config))
    misses = [config for config, result in results.items() if result is None]
    for config, result in zip(misses, fan_out(misses, jobs)):
        results[config] = result
        if cache is not None:
            cache.put(("sim", config), result)
    return [results[config] for config in ordered]
