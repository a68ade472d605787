"""Workload sensitivity: fidelity and cost per workload, per policy.

The paper's figures all share one update process (stationary Table 1
synthetics), so they say nothing about how the dissemination policies
behave when the *workload shape* changes -- the axis related disk-based
query-system work shows dominates system behaviour.  This experiment
runs every dissemination policy under every workload generator:

- ``table1`` -- the paper's stationary baseline,
- ``flash_crowd`` -- Pareto bursts of update activity,
- ``diurnal`` -- sinusoidally modulated update rate, and
- ``replay`` -- the ``table1`` traces written to CSV and replayed
  through :mod:`repro.traces.io`, a built-in cross-check: its column
  must match ``table1`` exactly, proving the replay path is lossless.

Loss of fidelity is plotted per policy across workloads; total update
messages (the cost side) are reported in the notes.  The whole grid is
one sweep, so ``--jobs N`` parallelises it with bit-identical output.

The replay corpus is written to a *content-addressed* directory (keyed
by the generation-relevant config fields), so the planned configs --
and with them the result-cache keys -- are identical across processes
and reruns; a warm rerun re-plans the same grid and touches no
simulation.
"""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile
from pathlib import Path

from repro.engine.config import SimulationConfig
from repro.experiments import api
from repro.experiments.cache import CACHE_SCHEMA_VERSION, fingerprint
from repro.experiments.runner import ExperimentResult, Series, report
from repro.sim.rng import RandomStreams
from repro.traces.io import write_trace_csv
from repro.workloads import (
    DiurnalWorkload,
    FlashCrowdWorkload,
    ReplayWorkload,
    Table1Workload,
)

__all__ = ["SPEC", "POLICIES"]

POLICIES = ("distributed", "centralized", "flooding", "eq3_only")


#: Process-lifetime scratch root used when caching is off; cleaned up at
#: exit, restoring the pre-registry TemporaryDirectory semantics.
_SCRATCH_ROOT: Path | None = None


def _corpus_root(ctx: api.ExperimentContext) -> Path:
    if ctx.cache is not None:
        # Under the cache's schema-versioned namespace, so bumping
        # CACHE_SCHEMA_VERSION orphans corpora and results together.
        return Path(ctx.cache.root) / f"v{CACHE_SCHEMA_VERSION}" / "replay-corpus"
    global _SCRATCH_ROOT
    if _SCRATCH_ROOT is None:
        _SCRATCH_ROOT = Path(tempfile.mkdtemp(prefix="repro-replay-"))
        atexit.register(shutil.rmtree, _SCRATCH_ROOT, ignore_errors=True)
    return _SCRATCH_ROOT


def _replay_corpus(ctx: api.ExperimentContext, config: SimulationConfig) -> Path:
    """Materialise the config's Table 1 traces as CSVs; return the dir.

    The directory is content-addressed by the fields that determine the
    trace set, so every process and every rerun resolves the same path
    (keeping the planned configs -- and the result-cache keys -- stable)
    and the corpus is written at most once.  Writers stage into a
    private temp dir and publish with an atomic rename, so concurrent
    cold starts can never expose a half-written corpus.  With caching
    off the corpus lives in a process-lifetime temp dir instead.
    """
    digest = fingerprint(
        ("replay-corpus", config.seed, config.n_items, config.trace_samples)
    )
    directory = _corpus_root(ctx) / digest[:16]
    if directory.exists():
        return directory
    directory.parent.mkdir(parents=True, exist_ok=True)
    # Stage inside the same parent so the publishing rename is atomic
    # (same filesystem) and never observable half-written.
    staging = Path(tempfile.mkdtemp(prefix=f".{digest[:16]}-", dir=directory.parent))
    try:
        streams = RandomStreams(config.seed)
        traces = Table1Workload().make_traces(
            config.n_items,
            rng_factory=lambda i: streams.spawn("traces", i),
            n_samples=config.trace_samples,
        )
        for i, trace in enumerate(traces):
            write_trace_csv(trace, staging / f"item{i:03d}.csv")
        try:
            os.rename(staging, directory)
        except OSError:
            # A concurrent writer published first; its corpus is
            # identical by construction.
            shutil.rmtree(staging, ignore_errors=True)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return directory


def _grid(ctx: api.ExperimentContext):
    base = ctx.base_config()
    corpus = _replay_corpus(ctx, base)
    workloads = (
        Table1Workload(),
        FlashCrowdWorkload(),
        DiurnalWorkload(),
        ReplayWorkload(path=str(corpus)),
    )
    return base, workloads


def _plan(ctx: api.ExperimentContext):
    base, workloads = _grid(ctx)
    return tuple(
        base.with_(policy=policy, workload=workload)
        for policy in POLICIES
        for workload in workloads
    )


def _collect(ctx: api.ExperimentContext, results) -> ExperimentResult:
    _base, workloads = _grid(ctx)
    losses = [r.loss_of_fidelity for r in results]
    n = len(workloads)
    result = ExperimentResult(
        name="Workload sensitivity: fidelity across update dynamics",
        xlabel="workload",
        ylabel="loss of fidelity (%)",
        xs=list(range(n)),
    )
    for p, policy in enumerate(POLICIES):
        result.series.append(Series(label=policy, ys=losses[p * n : (p + 1) * n]))
    result.notes["workloads"] = {w: wl.describe() for w, wl in enumerate(workloads)}
    result.notes["messages"] = {
        workload.name: {
            policy: results[p * n + w].messages for p, policy in enumerate(POLICIES)
        }
        for w, workload in enumerate(workloads)
    }
    replay_matches = all(
        results[p * n + 3].loss_of_fidelity == results[p * n + 0].loss_of_fidelity
        and results[p * n + 3].messages == results[p * n + 0].messages
        for p in range(len(POLICIES))
    )
    result.notes["replay == table1 (lossless round-trip)"] = replay_matches
    return result


SPEC = api.register(api.ExperimentSpec(
    name="workload_sensitivity",
    description=(
        "Every dissemination policy under every workload generator, with "
        "a replay==table1 losslessness cross-check."
    ),
    plan=_plan,
    collect=_collect,
    render=report,
))
