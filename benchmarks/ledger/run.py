"""One pass of one workload: the command ``BENCHMARK.json`` names.

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no observer and no
benchmark span anywhere; ``--trace 1`` wraps every call into a layer in
a span, reports the per-layer metrics and writes the spans to
``.ledger/trace_<workload>.json``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Exit status is 0 only when every correctness check passed.

Fleet workers are spawned processes that re-import this file as their
main module, so nothing here runs at import time.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_catalog() -> dict:
    """``BENCHMARK.json`` as ``{"workloads": [...], "end_to_end": {name: spec}, ...}``."""
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section in ("end_to_end", "per_layer"):
        document[section] = {spec["name"]: spec for spec in document[section]}
    document["workloads"] = [workload["name"] for workload in document["workloads"]]
    return document


def run_workload(name: str, seed: int, seconds: float, trace: bool, shrink: float = 1.0):
    """Run one pass in this process and return its ``Outcome``.

    ``shrink`` below 1 is for the ledger's own tests: same code paths on
    inputs small enough to finish in a second or two.
    """
    from benchmarks.ledger import live_workload, sim_workloads, sweep_workload
    from benchmarks.ledger.harness import REFERENCE_CALIBRATION_S, WORK_DIR, calibrate
    from benchmarks.ledger.spans import Tracer

    tracer = Tracer(name) if trace else None
    calibrated_before_s = calibrate() if trace else 0.0
    if name in ("sim_deep", "sim_fanout"):
        deep = name == "sim_deep"
        make = sim_workloads.sim_deep_config if deep else sim_workloads.sim_fanout_config
        config = make(seed, shrink)
        if trace:
            outcome = sim_workloads.trace(config, tracer, deep, shrink)
        else:
            outcome = sim_workloads.measure(config, seconds)
    elif name == "figure_sweep":
        if trace:
            outcome = sweep_workload.trace(seed, tracer, shrink)
        else:
            outcome = sweep_workload.measure(seed, seconds, shrink)
    elif name == "live_wire":
        config = live_workload.live_config(seed, shrink)
        if trace:
            outcome = live_workload.trace(config, tracer, shrink)
        else:
            outcome = live_workload.measure(config, seconds, shrink)
    else:
        raise SystemExit(f"unknown workload {name!r}")
    if tracer is not None:
        # Per-layer seconds are raw wall time; this says what the machine
        # was doing while they were taken.
        outcome.metrics["ledger.machine_slowdown"] = (
            (calibrated_before_s + calibrate()) / 2.0 / REFERENCE_CALIBRATION_S
        )
        tracer.write_json(WORK_DIR / f"trace_{name}.json")
    return outcome


def workload_definitions() -> dict[str, str]:
    """Each workload's inputs, spelled out; result files with different
    definitions are not comparable."""
    from benchmarks.ledger import live_workload, sim_workloads, sweep_workload

    return {
        "sim_deep": repr(sim_workloads.sim_deep_config(0)),
        "sim_fanout": repr(sim_workloads.sim_fanout_config(0)),
        "figure_sweep": (
            f"preset={sweep_workload.PRESET} shape={sweep_workload.SHAPE} "
            f"experiments={sweep_workload.EXPERIMENTS} params={sweep_workload.PARAMS}"
        ),
        "live_wire": (
            f"{live_workload.live_config(0)!r} planes={live_workload.PLANES} "
            f"time_scale={live_workload.TIME_SCALE} workers={live_workload.WORKERS}"
        ),
    }


def contract_metrics(outcome, trace: bool, catalog: dict) -> dict:
    """The pass's metrics in the declared shape, checked against the declaration.

    Every end-to-end metric must be measured by every workload.  A
    per-layer metric a workload never enters is reported as 0: that
    layer did no work there.
    """
    declared = catalog["per_layer" if trace else "end_to_end"]
    unknown = sorted(set(outcome.metrics) - set(declared))
    if unknown:
        raise SystemExit(f"metrics emitted but not declared in BENCHMARK.json: {unknown}")
    missing = [] if trace else sorted(set(declared) - set(outcome.metrics))
    if missing:
        raise SystemExit(f"end-to-end metrics declared but not measured: {missing}")
    metrics = {}
    for name, spec in declared.items():
        value = float(outcome.metrics.get(name, 0.0))
        if not math.isfinite(value):
            raise SystemExit(f"metric {name} is not finite: {value!r}")
        metrics[name] = {"value": value, "unit": spec["unit"]}
    return metrics


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    ``run_fleet`` joins its workers itself; what is left on the way out
    is a worker that survived an error path, and the resource tracker
    ``multiprocessing`` starts with the first spawned worker.  The
    tracker ends only once it sees our end of its pipe close, so unless
    it is stopped here it outlives this process by a moment.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    # Closes the pipe and waits for the tracker; a no-op if none runs.
    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    try:
        return measure_and_report(argv)
    finally:
        stop_children()


def measure_and_report(argv: list[str] | None = None) -> int:
    catalog = load_catalog()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=catalog["workloads"])
    parser.add_argument("--seed", type=int, default=20020812)
    parser.add_argument("--seconds", type=float, default=float(catalog["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    # Run as a script, sys.path[0] is this directory; the package and
    # the program are importable from the checkout root and src/.
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in outcome.problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    for note in outcome.notes:
        print(note, file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": contract_metrics(outcome, bool(args.trace), catalog),
            }
        )
    )
    return 0 if outcome.correct else 1


def _exit_on_sigterm(_signum, _frame) -> None:
    # Raised rather than left to kill us, so that every ``finally`` on
    # the way out runs and the fleet workers go down with the run.
    sys.exit(143)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    sys.exit(main())
