"""Parallel sweep execution with deterministic result merging.

Every experiment in the reproduction is a parameter sweep: a sequence of
:class:`~repro.engine.config.SimulationConfig` points whose results
become one curve of one figure.  The seed ran every point serially in
one process; this module fans the points out over a
:class:`concurrent.futures.ProcessPoolExecutor` while keeping the output
*bit-identical* to the serial path, whatever the worker count or
completion order.

The determinism guarantee rests on two facts:

- A config fully determines its result.  Every random stream is named
  and derived from ``config.seed``, and setup recycling (``base=`` in
  :func:`~repro.engine.builder.build_setup`) only reuses pieces whose
  governing fields match -- plus the network-rescale path always scales
  from the raw delay arrays (see
  :meth:`~repro.network.model.NetworkModel._uniformly_scaled`), so a
  recycled setup is bit-for-bit the setup a fresh build would produce.
  Worker-local recycling is therefore pure optimisation, never
  observable in the results.
- Merging is keyed by the config, not by completion order.  Each worker
  returns ``(position, result)`` pairs; the merge places results by the
  position of the *distinct* config in the submission order and then
  re-expands duplicates, so shuffling workers, chunks or finish times
  cannot reorder or alter the output.

Workers run contiguous chunks of the distinct-config list and chain
``base=`` recycling through a per-process cache (``_WORKER_BASE``), so
the expensive pieces -- topology generation, shortest-path routing,
trace synthesis -- are rebuilt only when a chunk actually crosses a
boundary in the governing fields, exactly as in a serial sweep.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, Sequence

from repro.engine.builder import SimulationSetup, build_setup
from repro.engine.config import SimulationConfig
from repro.engine.results import SimulationResult
from repro.engine.simulation import make_simulation
from repro.errors import ConfigurationError

__all__ = ["resolve_jobs", "run_sweep"]

#: Per-worker-process setup cache: the last setup built in this process,
#: recycled into the next point's ``build_setup(..., base=...)``.  Lives
#: at module scope so it survives across chunks handed to the same
#: worker.  Never leaves the worker, so it cannot leak between jobs
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


def _run_point(config: SimulationConfig) -> SimulationResult:
    """Run one sweep point, recycling setup pieces from the previous one."""
    global _WORKER_BASE
    setup = build_setup(config, base=_WORKER_BASE)
    _WORKER_BASE = setup
    return make_simulation(setup).run()


def _run_chunk(
    chunk: Sequence[tuple[int, SimulationConfig]]
) -> list[tuple[int, SimulationResult]]:
    """Worker entry point: run ``(position, config)`` pairs in order."""
    return [(position, _run_point(config)) for position, config in chunk]


def _contiguous_chunks(
    items: Sequence[tuple[int, SimulationConfig]], n_chunks: int
) -> list[list[tuple[int, SimulationConfig]]]:
    """Split into at most ``n_chunks`` contiguous, near-equal chunks.

    Contiguity matters: neighbouring sweep points usually differ in one
    field, so a worker's ``base=`` recycling keeps paying off inside its
    chunk just as it does along a serial sweep.
    """
    n = len(items)
    n_chunks = max(1, min(n_chunks, n))
    size, extra = divmod(n, n_chunks)
    chunks: list[list[tuple[int, SimulationConfig]]] = []
    start = 0
    for i in range(n_chunks):
        end = start + size + (1 if i < extra else 0)
        chunks.append(list(items[start:end]))
        start = end
    return chunks


def run_sweep(
    configs: Iterable[SimulationConfig], jobs: int | None = 1
) -> list[SimulationResult]:
    """Run every config and return results aligned to the input order.

    Args:
        configs: The sweep points, in the order the caller wants the
            results back.
        jobs: Worker processes to fan out over.  ``1`` runs everything
            serially in-process (no executor, no pickling); ``None`` or
            ``0`` use one worker per available CPU.

    Returns:
        One :class:`SimulationResult` per input config, in input order.
        Identical configs appearing more than once are simulated once
        and share one result object.
    """
    ordered = list(configs)
    n_jobs = resolve_jobs(jobs)

    # Deduplicate while preserving first-appearance order; the merge is
    # keyed by the config itself (frozen dataclass => hashable).
    distinct: list[SimulationConfig] = []
    position_of: dict[SimulationConfig, int] = {}
    for config in ordered:
        if config not in position_of:
            position_of[config] = len(distinct)
            distinct.append(config)

    merged: list[SimulationResult | None] = [None] * len(distinct)
    if n_jobs <= 1 or len(distinct) <= 1:
        base: SimulationSetup | None = None
        for position, config in enumerate(distinct):
            setup = build_setup(config, base=base)
            base = setup
            merged[position] = make_simulation(setup).run()
    else:
        chunks = _contiguous_chunks(list(enumerate(distinct)), n_jobs)
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            for pairs in pool.map(_run_chunk, chunks):
                for position, result in pairs:
                    merged[position] = result

    return [merged[position_of[config]] for config in ordered]
