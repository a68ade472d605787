"""Run every experiment and print the paper-shaped outputs.

Usage::

    python -m repro.experiments.run_all --preset small
    python -m repro.experiments.run_all --preset tiny --only figure3 figure11

All requested experiments are planned up front and executed through the
registry's shared plane (:mod:`repro.experiments.api`): the union of
their config grids goes through **one** deduplicated sweep fan-out, and
a content-addressed result cache means a warm rerun performs zero new
simulations.  Per-experiment JSON artifacts are persisted next to the
cache (disable with ``--no-cache``, redirect with ``--artifacts``).
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from repro.__main__ import _job_count
from repro.experiments import api
from repro.experiments.cache import ResultCache, default_cache_root
from repro.obs.logsetup import LOG_LEVELS, get_logger, setup_cli_logging

__all__ = ["build_parser", "main"]

log = get_logger("repro.experiments.run_all")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro.experiments.run_all", description=__doc__)
    parser.add_argument("--preset", default="small", help="tiny | small | paper")
    parser.add_argument(
        "--jobs",
        type=_job_count,
        default=1,
        metavar="N",
        help="worker processes per sweep (1 = serial, 0 = one per CPU); "
        "results are bit-identical for every value",
    )
    parser.add_argument(
        "--only",
        nargs="*",
        default=None,
        help="subset of experiments to run "
        f"(choices: {sorted(api.available_experiments())})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore the content-addressed result cache and recompute "
        "every sweep point",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result-cache location (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro)",
    )
    parser.add_argument(
        "--artifacts",
        default=None,
        metavar="DIR",
        help="directory for per-experiment JSON artifacts (default: "
        "<cache-dir>/artifacts/<preset>; only written when caching is on "
        "or a directory is given explicitly)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help="override the master seed of every planned config",
    )
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default=None,
        help="verbosity of the repro.* loggers (default: info, which "
        "keeps the output identical to earlier print-based releases)",
    )
    return parser


def main(argv: list[str] | None = None) -> None:
    parser = build_parser()
    args = parser.parse_args(argv)
    setup_cli_logging(args.log_level)

    known = api.available_experiments()
    names = args.only if args.only else known
    unknown = [n for n in names if n not in known]
    if unknown:
        parser.error(f"unknown experiments: {unknown}")

    cache: ResultCache | None = None
    if not args.no_cache:
        cache = ResultCache(Path(args.cache_dir or default_cache_root()))
    artifacts_dir = args.artifacts
    if artifacts_dir is None and cache is not None:
        artifacts_dir = cache.root / "artifacts" / args.preset

    start = time.time()
    report = api.run_experiments(
        names,
        preset=args.preset,
        jobs=args.jobs,
        cache=cache,
        artifacts_dir=artifacts_dir,
        overrides={"seed": args.seed} if args.seed is not None else None,
        progress=log.info,
    )
    for name in names:
        log.info(
            f"\n{'=' * 72}\nRunning {name} (preset={args.preset})\n{'=' * 72}"
        )
        log.info(report.texts[name])
        log.info(f"[{name} done in {report.seconds[name]:.1f}s]")

    stats = report.stats
    log.info(
        f"\n[all done in {time.time() - start:.1f}s: "
        f"{stats.planned} planned points, {stats.distinct} distinct, "
        f"{stats.total_cached} cached, {stats.total_simulated} simulated]"
    )
    if report.artifacts:
        log.info(f"[artifacts: {artifacts_dir}]")


if __name__ == "__main__":
    main()
