"""The whole ledger in one command.

    PYTHONPATH=src python -m benchmarks.ledger [--seed N] [--runs R] [--out FILE]
    PYTHONPATH=src python -m benchmarks.ledger --compare OLD.json NEW.json

Every workload runs in fresh ``run.py`` child processes: ``R`` untraced
passes for the end-to-end metrics (the file keeps every sample and
reports the median), then one traced pass for the per-layer metrics.
Every metric is printed by name with its unit, the results go to
``--out`` and the traced passes' spans to ``.ledger/trace.json``.
Exit status is non-zero when any pass failed a correctness check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

from benchmarks.ledger.compare import compare
from benchmarks.ledger.harness import WORK_DIR
from benchmarks.ledger.run import ROOT, load_catalog, workload_definitions

HERE = Path(__file__).resolve().parent


def machine_fingerprint() -> dict:
    """Where the numbers were taken; ``nproc`` is the comparability class."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    git = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": git.stdout.strip() if git.returncode == 0 else "unknown",
        "load_1min_at_start": os.getloadavg()[0],
    }


def run_pass(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One child ``run.py``; returns its last-line JSON (plus ``exit``)."""
    child = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(int(trace)),
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = child.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload}: pass produced no result (exit {child.returncode})")
    result = json.loads(lines[-1])
    result["exit"] = child.returncode
    return result


def run_ledger(
    seed: int, runs: int, seconds: float, catalog: dict
) -> tuple[dict, list[dict]]:
    machine = machine_fingerprint()
    if machine["load_1min_at_start"] > machine["nproc"] / 2:
        print(
            f"WARNING: 1-min load {machine['load_1min_at_start']:.2f} exceeds "
            f"nproc/2 = {machine['nproc'] / 2}; timings will be noisy",
            file=sys.stderr,
        )
    results = {
        "schema": 1,
        "claim": None,
        "seed": seed,
        "run_seconds": seconds,
        "runs": runs,
        "machine": machine,
        "definitions": workload_definitions(),
        "workloads": {},
    }
    spans = []
    for workload in catalog["workloads"]:
        untraced = [run_pass(workload, seed, seconds, trace=False) for _ in range(runs)]
        traced = run_pass(workload, seed, seconds, trace=True)
        spans.extend(json.loads((WORK_DIR / f"trace_{workload}.json").read_text()))
        passes = untraced + [traced]
        attempted = sum(p["attempted"] for p in untraced)
        failed = sum(p["failed"] for p in untraced)
        end_to_end = {}
        for name, spec in catalog["end_to_end"].items():
            samples = [p["metrics"][name]["value"] for p in untraced]
            end_to_end[name] = {
                "value": statistics.median(samples),
                "unit": spec["unit"],
                "samples": samples,
            }
        results["workloads"][workload] = {
            "correct": all(p["correct"] and p["exit"] == 0 for p in passes),
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted,
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
        }
        report(workload, results["workloads"][workload])
    results["spans"] = len(spans)
    return results, spans


def report(workload: str, entry: dict) -> None:
    print(
        f"== {workload}: correct={entry['correct']} "
        f"failed={entry['failed']}/{entry['attempted']}"
    )
    for section in ("end_to_end", "per_layer"):
        for name, metric in entry[section].items():
            if section == "per_layer" and metric["value"] == 0:
                continue  # a layer this workload never enters
            print(f"  {name:<36}{metric['value']:>14.6g} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    catalog = load_catalog()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=20020812)
    parser.add_argument("--runs", type=int, default=3, help="untraced passes per workload")
    parser.add_argument("--out", type=Path, default=WORK_DIR / "BENCH.json")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)

    if args.compare:
        old, new = (json.loads(path.read_text()) for path in args.compare)
        interactions = json.loads((HERE / "interactions.json").read_text())
        lines, status = compare(old, new, catalog, interactions)
        print("\n".join(lines))
        return status

    results, spans = run_ledger(args.seed, args.runs, float(catalog["run_seconds"]), catalog)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=1) + "\n")
    (WORK_DIR / "trace.json").write_text(json.dumps(spans, indent=1) + "\n")
    print(f"results: {args.out}  spans: {WORK_DIR / 'trace.json'}")
    return 0 if all(w["correct"] for w in results["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
