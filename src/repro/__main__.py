"""Command-line entry point: run one dissemination simulation or sweep.

Examples::

    python -m repro                              # tiny preset, defaults
    python -m repro --preset small --t 100 --degree 8 --policy centralized
    python -m repro --controlled --offered 100   # Eq. (2) picks the degree
    python -m repro --degrees 1,2,4,8 --jobs 4   # parallel degree sweep
    python -m repro --churn 2,1,2                # mid-run membership churn
    python -m repro --adaptive window=30,threshold=0.75  # online rewiring
    python -m repro --workload flash_crowd:intensity=1.2
    python -m repro --workload replay:path=my_traces/

The declarative experiment registry hangs off the ``experiments``
subcommand::

    python -m repro experiments list
    python -m repro experiments show figure3
    python -m repro experiments run figure3 figure8 --preset tiny --jobs 4

The live repository network (real servers running the same algorithms)
hangs off the ``live`` subcommand::

    python -m repro live run --preset tiny
    python -m repro live run --transport tcp --time-scale 600 --duration 60
    python -m repro live loadgen --jobs 16 --preset tiny

The multi-process fleet (the live network sharded across worker
processes, with sample-based anti-entropy resync on reconnect) hangs
off the ``fleet`` subcommand::

    python -m repro fleet run --workers 4 --preset tiny --time-scale 600
    python -m repro fleet run --workers 2 --crosscheck --duration 60
    python -m repro fleet loadgen --workers 4 --jobs 1000 --preset tiny

The observability layer (per-update trace spans, the metrics registry
and the fidelity-violation explainer) hangs off the ``obs``
subcommand::

    python -m repro obs trace --preset tiny --update 12
    python -m repro obs metrics --failures 2,1 --json metrics.json
    python -m repro obs explain --failures 2,1
"""

from __future__ import annotations

import argparse

from repro.core.dissemination import available_policies
from repro.engine import (
    KERNELS,
    SCALE_PRESETS,
    run_simulation,
    run_sweep,
    schedule_for_config,
)
from repro.engine.adaptive import parse_adaptive_spec
from repro.engine.churn import parse_churn_spec
from repro.engine.failures import failures_for_config, parse_failure_spec
from repro.errors import ConfigurationError
from repro.experiments.runner import preset_config
from repro.obs.logsetup import LOG_LEVELS, get_logger, setup_cli_logging
from repro.workloads import available_workloads, parse_workload_spec

__all__ = ["main"]


def _degree_list(text: str) -> list[int]:
    try:
        return [int(d) for d in text.split(",") if d.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _churn_counts(text: str) -> tuple[int, int, int]:
    try:
        return parse_churn_spec(text)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _failure_counts(text: str) -> tuple[int, int]:
    try:
        return parse_failure_spec(text)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _adaptive_spec(text: str):
    try:
        return parse_adaptive_spec(text)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _workload_spec(text: str):
    try:
        return parse_workload_spec(text)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _job_count(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if jobs < 0:
        raise argparse.ArgumentTypeError("must be >= 0 (0 = one worker per CPU)")
    return jobs


def _config_options(sub: argparse.ArgumentParser, prefix: str, seed: bool = True) -> None:
    """Declare ``--preset/--policy/--t`` (and ``--seed``) on ``sub``.

    The subcommands reuse the top-level spelling but need their own
    dests: argparse parses a subcommand *after* the main options, so a
    shared dest would silently clobber an explicit top-level value with
    the subparser's default.  ``prefix`` keeps them apart.
    """
    sub.add_argument(
        "--preset", dest=prefix + "preset", default="tiny",
        choices=sorted(SCALE_PRESETS), help="scale preset (default: tiny)",
    )
    sub.add_argument(
        "--policy", dest=prefix + "policy", default="distributed",
        choices=available_policies(),
        help="dissemination policy (default: distributed)",
    )
    sub.add_argument(
        "--t", dest=prefix + "t", type=float, default=80.0, metavar="PERCENT",
        help="share of stringent coherency tolerances (default: 80)",
    )
    if seed:
        sub.add_argument(
            "--seed", dest=prefix + "seed", type=int, default=None,
            help="master seed (default: preset seed)",
        )


def _fault_options(sub: argparse.ArgumentParser, prefix: str, note: str) -> None:
    """Declare ``--failures/--loss`` on ``sub`` (dests as above)."""
    sub.add_argument(
        "--failures", dest=prefix + "failures", type=_failure_counts,
        default=None, metavar="C,P",
        help="inject C repository crash/recover pairs and P link "
        f"down/up windows ({note})",
    )
    sub.add_argument(
        "--loss", dest=prefix + "loss", type=float, default=None, metavar="P",
        help="seeded Bernoulli message-loss probability in [0, 1) "
        "(default: the config's, normally 0)",
    )


#: ``SimulationConfig`` field <- the option that overrides it, where
#: the (sub)command offers one and the user gave it.
_CONFIG_OPTIONS = (
    ("t_percent", "t"),
    ("policy", "policy"),
    ("seed", "seed"),
    ("kernel", "kernel"),
    ("message_loss_probability", "loss"),
    ("adaptive", "adaptive"),
    ("workload", "workload"),
    ("offered_degree", "degree"),
    ("controlled_cooperation", "controlled"),
    ("comp_delay_ms", "comp_delay"),
    ("comm_target_ms", "comm_delay"),
    ("clients_per_repository", "clients"),
)


def _config_from_args(args, prefix: str):
    """The run config the ``prefix``-ed options of one (sub)command describe."""

    def option(name: str):
        return getattr(args, prefix + name, None)

    overrides = {
        field: option(name)
        for field, name in _CONFIG_OPTIONS
        if option(name) is not None
    }
    config = preset_config(option("preset"), **overrides)
    if option("churn") is not None:
        joins, departs, updates = option("churn")
        config = config.with_(
            churn=schedule_for_config(
                config, joins=joins, departs=departs, updates=updates
            )
        )
    if option("failures") is not None:
        crashes, partitions = option("failures")
        try:
            config = config.with_(
                failures=failures_for_config(
                    config, crashes=crashes, partitions=partitions
                )
            )
        except ConfigurationError as exc:
            raise SystemExit(str(exc)) from None
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Run one cooperative-dissemination simulation "
            "(Shah et al., VLDB 2002 reproduction)."
        ),
    )
    _config_options(parser, "", seed=False)
    parser.add_argument(
        "--degree", type=int, default=None, metavar="N",
        help="offered degree of cooperation (default: preset value)",
    )
    parser.add_argument(
        "--degrees", type=_degree_list, default=None, metavar="N,N,...",
        help="comma-separated degree sweep; one summary line per degree "
        "(runs through the parallel sweep subsystem)",
    )
    parser.add_argument(
        "--jobs", type=_job_count, default=1, metavar="N",
        help="worker processes for --degrees sweeps (1 = serial, "
        "0 = one per CPU); results are bit-identical for every value",
    )
    parser.add_argument(
        "--churn", type=_churn_counts, default=None, metavar="J,D,U",
        help="synthetic mid-run churn: J late joins, D departures, U "
        "coherency changes, placed by a schedule derived from the seed "
        "(see repro.engine.churn)",
    )
    parser.add_argument(
        "--failures", type=_failure_counts, default=None, metavar="C,P",
        help="synthetic unplanned failures: C repository crash/recover "
        "pairs and P link down/up windows, placed by a schedule derived "
        "from the seed (see repro.engine.failures)",
    )
    parser.add_argument(
        "--adaptive", type=_adaptive_spec, default=None, metavar="K=V,...",
        help="online drift-triggered re-optimization, e.g. "
        "window=30,threshold=0.75,cooldown=0,scope=subtree,max_rewires=8 "
        "(empty value = defaults; see repro.engine.adaptive)",
    )
    parser.add_argument(
        "--workload", type=_workload_spec, default=None, metavar="NAME[:K=V,...]",
        help="update-stream workload, e.g. flash_crowd:intensity=1.2 or "
        f"replay:path=traces/ (names: {', '.join(available_workloads())}; "
        "default: table1, the paper's synthetic traces)",
    )
    parser.add_argument(
        "--controlled", action="store_true",
        help="clamp the degree with Eq. (2)",
    )
    parser.add_argument(
        "--comp-delay", type=float, default=None, metavar="MS",
        help="per-dependent computational delay (default: 12.5 ms)",
    )
    parser.add_argument(
        "--comm-delay", type=float, default=None, metavar="MS",
        help="target mean repo-to-repo delay (default: topology's own)",
    )
    parser.add_argument(
        "--kernel", default=None, choices=sorted(KERNELS),
        help="debugging switch: scalar runs the per-event reference "
        "engine; results are bit-identical (auto and vectorized both "
        "mean the engine)",
    )
    parser.add_argument(
        "--clients", type=int, default=None, metavar="N",
        help="modeled end-clients per repository (default: preset value; "
        "the scalability preset attaches 1000)",
    )
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument(
        "--log-level", choices=LOG_LEVELS, default=None,
        help="verbosity of the repro.* loggers (default: info, which "
        "keeps the output identical to earlier print-based releases)",
    )

    subcommands = parser.add_subparsers(
        dest="command", metavar="COMMAND",
        description="optional subcommands (default: run one simulation)",
    )
    experiments = subcommands.add_parser(
        "experiments",
        help="declarative experiment registry: list | show | run",
        description=(
            "Discover and run the registered experiments (the paper's "
            "tables/figures and the system extensions) through the shared "
            "cached execution plane."
        ),
    )
    actions = experiments.add_subparsers(
        dest="experiments_command", metavar="ACTION", required=True
    )

    actions.add_parser(
        "list", help="names and descriptions of every registered experiment"
    )

    # The subcommand options reuse the top-level spelling (--preset,
    # --jobs) but need their own dests: argparse parses the subcommand
    # *after* the main options, so a shared dest would silently clobber
    # an explicit top-level value with the subparser's default.
    show = actions.add_parser(
        "show", help="one experiment's description, parameter schema and plan"
    )
    show.add_argument("name", help="registered experiment name")
    show.add_argument(
        "--preset", dest="exp_preset", default="tiny",
        help="preset used to size the plan preview",
    )

    run = actions.add_parser(
        "run", help="run experiments through the shared cached sweep plane"
    )
    run.add_argument("names", nargs="+", help="registered experiment names")
    run.add_argument(
        "--preset", dest="exp_preset", default="small",
        help="tiny | small | paper",
    )
    run.add_argument(
        "--jobs", dest="exp_jobs", type=_job_count, default=1, metavar="N",
        help="worker processes for the shared sweep (1 = serial, 0 = one "
        "per CPU); results are bit-identical for every value",
    )
    run.add_argument(
        "--no-cache", action="store_true",
        help="recompute every point, ignoring the content-addressed cache",
    )
    run.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache location (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro)",
    )
    run.add_argument(
        "--artifacts", default=None, metavar="DIR",
        help="directory for per-experiment JSON artifacts (default: "
        "<cache-dir>/artifacts/<preset> when caching is on)",
    )
    run.add_argument(
        "--param", action="append", default=[], metavar="EXP.KEY=VALUE",
        help="typed experiment parameter, e.g. figure3.policy=distributed "
        "or figure3.t_values=100,50,0 (repeatable)",
    )
    run.add_argument(
        "--seed", dest="exp_seed", type=int, default=None, metavar="N",
        help="override the master seed of every planned config (pins the "
        "whole run, e.g. for the live cross-check)",
    )

    live = subcommands.add_parser(
        "live",
        help="the live repository network: run | loadgen",
        description=(
            "Run the cooperative repository network for real: actual "
            "servers replaying the config's workload through the same "
            "LeLA d3g and coherency filter the simulator uses."
        ),
    )
    live_actions = live.add_subparsers(
        dest="live_command", metavar="ACTION", required=True
    )

    def _live_common(sub: argparse.ArgumentParser) -> None:
        _config_options(sub, "live_")
        sub.add_argument(
            "--transport", default="inprocess", choices=("inprocess", "tcp"),
            help="inprocess = deterministic virtual time (bit-reproducible); "
            "tcp = real localhost sockets (default: inprocess)",
        )
        sub.add_argument(
            "--time-scale", type=float, default=60.0, metavar="X",
            help="simulated seconds per wall second for the tcp transport "
            "(default: 60; ignored by inprocess, which runs virtual time)",
        )
        sub.add_argument(
            "--duration", type=float, default=None, metavar="S",
            help="truncate the replay to the first S simulated seconds "
            "(default: the full trace span)",
        )
        _fault_options(sub, "live_", "same seeded schedule the simulator runs")
        sub.add_argument(
            "--adaptive", dest="live_adaptive", type=_adaptive_spec,
            default=None, metavar="K=V,...",
            help="arm drift-triggered online re-optimization "
            "(window/threshold/cooldown/scope/max_rewires; empty value = "
            "defaults; inprocess transport only)",
        )
        sub.add_argument(
            "--heartbeat-interval", type=float, default=0.5, metavar="S",
            help="tcp liveness-probe period in wall seconds; 0 disables "
            "(default: 0.5; ignored by inprocess)",
        )

    live_run = live_actions.add_parser(
        "run", help="replay the workload through a live network"
    )
    _live_common(live_run)

    loadgen = live_actions.add_parser(
        "loadgen",
        help="attach synthetic clients and report observed fidelity",
    )
    _live_common(loadgen)
    loadgen.add_argument(
        "--jobs", dest="live_jobs", type=_job_count, default=8, metavar="N",
        help="number of concurrent synthetic clients (default: 8)",
    )

    fleet = subcommands.add_parser(
        "fleet",
        help="the multi-process live fleet: run | loadgen",
        description=(
            "Run the live repository network sharded across worker "
            "processes: each worker hosts a shard of the d3g, workers "
            "speak the hardened wire protocol over localhost TCP, and "
            "repositories anti-entropy-resync against their parents on "
            "reconnect."
        ),
    )
    fleet_actions = fleet.add_subparsers(
        dest="fleet_command", metavar="ACTION", required=True
    )

    def _fleet_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--workers", type=int, default=2, metavar="N",
            help="worker processes the shards spread over (default: 2)",
        )
        _config_options(sub, "fleet_")
        sub.add_argument(
            "--time-scale", type=float, default=60.0, metavar="X",
            help="simulated seconds per wall second (default: 60)",
        )
        sub.add_argument(
            "--duration", type=float, default=None, metavar="S",
            help="truncate the replay to the first S simulated seconds "
            "(default: the full trace span)",
        )
        sub.add_argument(
            "--heartbeat-interval", type=float, default=0.5, metavar="S",
            help="per-link liveness-probe period in wall seconds; 0 "
            "disables (default: 0.5)",
        )
        sub.add_argument(
            "--sever-at", type=float, default=None, metavar="S",
            help="fault injection: sever worker 0's outbound links at "
            "this simulated time, exercising reconnect + anti-entropy "
            "resync (default: off)",
        )

    fleet_run = fleet_actions.add_parser(
        "run", help="replay the workload through a sharded fleet"
    )
    _fleet_common(fleet_run)
    fleet_run.add_argument(
        "--crosscheck", action="store_true",
        help="also run the single-process inprocess transport on the "
        "same config and verify the fleet agrees on fidelity within "
        "0.5pp (exits nonzero on disagreement)",
    )

    fleet_loadgen = fleet_actions.add_parser(
        "loadgen",
        help="shard synthetic clients across the fleet and report",
    )
    _fleet_common(fleet_loadgen)
    fleet_loadgen.add_argument(
        "--jobs", dest="fleet_jobs", type=_job_count, default=64, metavar="N",
        help="number of synthetic clients, sharded across the workers "
        "(default: 64)",
    )

    obs = subcommands.add_parser(
        "obs",
        help="observability: trace | metrics | explain",
        description=(
            "Run one traced simulation and inspect it: per-update trace "
            "spans, the metrics-registry snapshot, or the causal "
            "explanation of every fidelity-loss segment.  Tracing is "
            "attached out-of-band, so the traced run is bit-identical "
            "to the untraced one."
        ),
    )
    obs_actions = obs.add_subparsers(
        dest="obs_command", metavar="ACTION", required=True
    )

    def _obs_common(sub: argparse.ArgumentParser) -> None:
        _config_options(sub, "obs_")
        sub.add_argument(
            "--kernel", dest="obs_kernel", default=None,
            choices=sorted(KERNELS),
            help="debugging switch: scalar runs the per-event reference "
            "engine; results -- traced spans included -- are bit-identical",
        )
        _fault_options(
            sub, "obs_",
            "the seeded schedule; drops show up as crash/partition spans",
        )
        sub.add_argument(
            "--json", dest="obs_json", default=None, metavar="PATH",
            help="also write the full span stream / metrics snapshot as "
            "a JSON artifact",
        )

    obs_trace = obs_actions.add_parser(
        "trace", help="hop-by-hop span records of one traced run"
    )
    _obs_common(obs_trace)
    obs_trace.add_argument(
        "--update", dest="obs_update", type=int, default=None, metavar="ID",
        help="show only this update's spans (default: all, capped by "
        "--limit)",
    )
    obs_trace.add_argument(
        "--limit", dest="obs_limit", type=int, default=40, metavar="N",
        help="span lines printed (default: 40; 0 = unlimited)",
    )

    obs_metrics = obs_actions.add_parser(
        "metrics", help="metrics-registry snapshot of one traced run"
    )
    _obs_common(obs_metrics)

    obs_explain = obs_actions.add_parser(
        "explain",
        help="name the hop and reason behind every fidelity-loss segment",
    )
    _obs_common(obs_explain)
    return parser


def _experiments_list() -> None:
    from repro.experiments import api

    names = api.available_experiments()
    width = max(len(n) for n in names)
    for name in names:
        spec = api.get_experiment(name)
        print(f"{name:<{width}}  {spec.description}")


def _experiments_show(name: str, preset: str) -> None:
    from repro.experiments import api

    spec = api.get_experiment(name)
    ctx = api.ExperimentContext(preset=preset, params=spec.resolve_params())
    plan = spec.plan(ctx)
    print(f"{spec.name}: {spec.description}")
    print(f"\nparameters ({len(spec.params)}):")
    if not spec.params:
        print("  (none)")
    for p in spec.params:
        print(f"  {p.name:<18} {p.kind:<7} default={p.default!r}")
        if p.help:
            print(f"  {'':<18} {p.help}")
    print(
        f"\nplan ({preset} preset): {len(plan)} sweep configs, "
        f"{len(set(plan))} distinct"
    )
    if plan:
        print(f"plan fingerprint: {api.plan_fingerprint(plan)[:16]}")


def _parse_params(
    pairs: list[str], names: list[str]
) -> dict[str, dict[str, object]]:
    from repro.experiments import api

    params: dict[str, dict[str, object]] = {}
    for pair in pairs:
        target, eq, value = pair.partition("=")
        exp, dot, key = target.partition(".")
        if not eq or not dot or not exp or not key:
            raise SystemExit(
                f"--param expects EXP.KEY=VALUE, got {pair!r}"
            )
        if exp not in names:
            raise SystemExit(
                f"--param names unknown or unrequested experiment {exp!r}"
            )
        spec = api.get_experiment(exp)
        try:
            params.setdefault(exp, {})[key] = spec.param(key).coerce(value)
        except ConfigurationError as exc:
            raise SystemExit(str(exc)) from None
    return params


def _experiments_run(args) -> None:
    from pathlib import Path

    from repro.experiments import api
    from repro.experiments.cache import ResultCache, default_cache_root

    names = list(dict.fromkeys(args.names))
    known = api.available_experiments()
    unknown = [n for n in names if n not in known]
    if unknown:
        raise SystemExit(f"unknown experiments: {unknown}; choose from {known}")

    cache = None
    if not args.no_cache:
        cache = ResultCache(Path(args.cache_dir or default_cache_root()))
    artifacts_dir = args.artifacts
    if artifacts_dir is None and cache is not None:
        artifacts_dir = cache.root / "artifacts" / args.exp_preset

    overrides = {"seed": args.exp_seed} if args.exp_seed is not None else None
    report = api.run_experiments(
        names,
        preset=args.exp_preset,
        jobs=args.exp_jobs,
        cache=cache,
        artifacts_dir=artifacts_dir,
        params_by_name=_parse_params(args.param, names),
        overrides=overrides,
        progress=get_logger("repro.experiments").info,
    )
    for name in names:
        print(f"\n{report.texts[name]}")
    if report.artifacts:
        print(f"\n[artifacts: {artifacts_dir}]")


def _live_knobs(args) -> dict:
    return dict(
        duration=args.duration,
        time_scale=args.time_scale,
        heartbeat_interval_s=args.heartbeat_interval,
    )


def _live_run(args) -> None:
    from repro.live import run_live

    config = _config_from_args(args, "live_")
    result = run_live(config, args.transport, **_live_knobs(args))
    rate = result.delivered / result.wall_seconds if result.wall_seconds else 0.0
    print(f"preset={args.live_preset} policy={args.live_policy} "
          f"transport={result.transport} workload={config.workload.describe()}")
    print(f"observed loss of fidelity : {result.loss_of_fidelity:.3f} %")
    print(f"messages (repo plane)     : {result.messages}")
    print(f"sent/delivered/dropped    : {result.sent}/{result.delivered}"
          f"/{result.dropped} (conserved={result.conserved})")
    print(f"replayed span             : {result.sim_span_s:.0f} s simulated")
    print(f"wall time                 : {result.wall_seconds:.2f} s "
          f"({rate:.0f} deliveries/s)")
    if args.live_failures is not None:
        print(f"failure events            : "
              f"{result.extras.get('failure_events', 0)} "
              f"({result.extras.get('crashes', 0)} crashes, "
              f"{result.extras.get('partitions', 0)} partitions)")
        print(f"resyncs (checks/msgs)     : {result.counters.resyncs} "
              f"({result.counters.resync_checks}"
              f"/{result.counters.resync_messages})")
        if "heartbeats" in result.extras:
            print(f"heartbeats/reconnects     : "
                  f"{result.extras['heartbeats']}"
                  f"/{result.extras['reconnects']}")
    if args.live_adaptive is not None:
        print(f"drift ticks/triggered     : "
              f"{result.extras.get('adaptive_ticks', 0)}"
              f"/{result.extras.get('adaptive_triggered', 0)}")
        print(f"adaptive rewires          : "
              f"{result.extras.get('adaptive_rewires', 0)} "
              f"({result.counters.resubscriptions} resubscriptions)")


def _live_loadgen(args) -> None:
    from repro.live import run_loadgen

    if args.live_jobs < 1:
        raise SystemExit("--jobs must be >= 1 for loadgen")
    config = _config_from_args(args, "live_")
    report = run_loadgen(config, args.live_jobs, args.transport, **_live_knobs(args))
    result = report.result
    print(f"preset={args.live_preset} policy={args.live_policy} "
          f"transport={result.transport} clients={args.live_jobs}")
    print(f"network loss of fidelity  : {result.loss_of_fidelity:.3f} %")
    print(f"client requirements met   : {report.n_met}/{report.n_requirements} "
          f"({100.0 * report.met_fraction:.0f}%)")
    print(f"client messages           : "
          f"{result.extras.get('client_messages', 0)}")
    print(f"{'client':>6} {'repo':>5} {'items':>5} {'met':>4} "
          f"{'worst observed loss%':>21}")
    for client in report.clients:
        worst = max(client.observed_loss.values(), default=0.0)
        print(f"{client.client_id:>6} {client.repository:>5} "
              f"{len(client.requirements):>5} "
              f"{sum(client.met.values()):>4} {worst:>21.3f}")


def _fleet_knobs(args) -> dict:
    return dict(
        workers=args.workers,
        duration=args.duration,
        time_scale=args.time_scale,
        heartbeat_interval_s=args.heartbeat_interval,
        sever_at_s=args.sever_at,
    )


def _print_fleet_result(result, args) -> None:
    rate = result.delivered / result.wall_seconds if result.wall_seconds else 0.0
    print(f"preset={args.fleet_preset} policy={args.fleet_policy} "
          f"workers={result.extras['workers']} "
          f"shards={result.extras['shard_sizes']}")
    print(f"observed loss of fidelity : {result.loss_of_fidelity:.3f} %")
    print(f"messages (repo plane)     : {result.messages}")
    print(f"sent/delivered/dropped    : {result.sent}/{result.delivered}"
          f"/{result.dropped} (conserved={result.conserved})")
    print(f"replayed span             : {result.sim_span_s:.0f} s simulated")
    print(f"wall time                 : {result.wall_seconds:.2f} s "
          f"({rate:.0f} deliveries/s)")
    print(f"queue stalls              : {result.extras['queue_stalls']}")
    if result.extras.get("reconnects") or result.counters.resyncs:
        print(f"reconnects                : "
              f"{result.extras.get('reconnects', 0)}")
        print(f"resyncs (checks/msgs)     : {result.counters.resyncs} "
              f"({result.counters.resync_checks}"
              f"/{result.counters.resync_messages})")


def _fleet_run(args) -> None:
    from repro.fleet import run_fleet
    from repro.live import run_live

    config = _config_from_args(args, "fleet_")
    result = run_fleet(config, **_fleet_knobs(args))
    _print_fleet_result(result, args)
    if not result.conserved:
        raise SystemExit("fleet run violated wire conservation")
    if args.crosscheck:
        single = run_live(config, "inprocess", duration=args.duration)
        gap = abs(single.loss_of_fidelity - result.loss_of_fidelity)
        print(f"crosscheck single-process : loss="
              f"{single.loss_of_fidelity:.3f} % (gap {gap:.3f} pp)")
        if gap > 0.5:
            raise SystemExit(
                f"fleet fidelity diverged from the single-process run by "
                f"{gap:.3f} pp (> 0.5 pp)"
            )


def _fleet_loadgen(args) -> None:
    from repro.fleet import run_fleet_loadgen

    if args.fleet_jobs < 1:
        raise SystemExit("--jobs must be >= 1 for loadgen")
    config = _config_from_args(args, "fleet_")
    report = run_fleet_loadgen(config, args.fleet_jobs, **_fleet_knobs(args))
    result = report.result
    _print_fleet_result(result, args)
    print(f"clients (sharded)         : {args.fleet_jobs}")
    print(f"client requirements met   : {report.n_met}/{report.n_requirements} "
          f"({100.0 * report.met_fraction:.0f}%)")
    print(f"client messages           : "
          f"{result.extras.get('client_messages', 0)}")


def _obs_run(args):
    """One traced run: the recorder rides out-of-band next to the config."""
    from repro.obs import TraceRecorder

    config = _config_from_args(args, "obs_")
    recorder = TraceRecorder(policy=config.policy)
    result = run_simulation(config, observer=recorder)
    return config, recorder, result


def _format_span(ev) -> str:
    hop = f"{ev.node}->{ev.dst}" if ev.dst is not None else f"{ev.node}"
    if ev.kind in ("check", "source"):
        verdict = "ok" if ev.forwarded else f"[{ev.reason}]"
        return (f"  t={ev.time:9.3f}s update={ev.update_id:<4d} "
                f"item={ev.item_id} {ev.kind:<8s} {hop:<9s} {verdict}")
    if ev.kind == "drop":
        return (f"  t={ev.time:9.3f}s update={ev.update_id:<4d} "
                f"item={ev.item_id} {ev.kind:<8s} {hop:<9s} [{ev.reason}]")
    return (f"  t={ev.time:9.3f}s update={ev.update_id:<4d} "
            f"item={ev.item_id} {ev.kind:<8s} {hop}")


def _obs_trace(args) -> None:
    config, recorder, result = _obs_run(args)
    totals = recorder.totals()
    print(f"preset={args.obs_preset} policy={args.obs_policy} "
          f"workload={config.workload.describe()}")
    print(f"updates traced        : {len(recorder.by_update())}")
    print(f"spans recorded        : {len(recorder)}")
    print(f"span economy          : {totals.messages} forwards, "
          f"{totals.deliveries} deliveries, {totals.drops} drops "
          f"(counters agree: "
          f"{totals.messages == result.counters.messages and totals.deliveries == result.counters.deliveries and totals.drops == result.counters.drops})")
    events = (
        recorder.spans(args.obs_update)
        if args.obs_update is not None
        else recorder.events
    )
    shown = events if args.obs_limit == 0 else events[: args.obs_limit]
    for ev in shown:
        print(_format_span(ev))
    if len(shown) < len(events):
        print(f"  ... {len(events) - len(shown)} more spans "
              f"(raise --limit or use --json)")
    if args.obs_json:
        print(f"[trace: {recorder.write_json(args.obs_json)}]")


def _obs_metrics(args) -> None:
    import json as _json

    config, recorder, result = _obs_run(args)
    del config, result
    snapshot = recorder.metrics.snapshot()
    if args.obs_json:
        print(f"[metrics: {recorder.metrics.write_json(args.obs_json)}]")
    else:
        print(_json.dumps(snapshot, indent=2))


def _obs_explain(args) -> None:
    from repro.obs import explain_loss_segments, format_explanation

    config, recorder, result = _obs_run(args)
    del config
    per_pair = result.extras.get("per_pair_loss", {})
    segments = {pair: loss for pair, loss in per_pair.items() if loss > 0.0}
    print(f"loss of fidelity      : {result.loss_of_fidelity:.3f} %")
    print(f"loss segments         : {len(segments)} of {len(per_pair)} "
          f"(repository, item) pairs")
    if not segments:
        print("nothing to explain: every pair saw full fidelity")
        return
    explanations = explain_loss_segments(recorder, per_pair)
    for (repo, item_id), pair_explanations in explanations.items():
        print(f"repo {repo} item {item_id}: loss "
              f"{per_pair[(repo, item_id)]:.3f} %")
        # One line per distinct terminal cause, heaviest first.
        groups: dict[tuple, int] = {}
        for e in pair_explanations:
            key = (e.verdict, e.node, e.dst, e.reason)
            groups[key] = groups.get(key, 0) + 1
        for (verdict, node, dst, reason), count in sorted(
            groups.items(), key=lambda kv: (-kv[1], str(kv[0]))
        ):
            if verdict == "dropped":
                cause = f"dropped on hop {node}->{dst} [{reason}]"
            elif verdict == "filtered":
                cause = f"filtered on hop {node}->{dst} [{reason}]"
            elif verdict == "suppressed":
                cause = f"suppressed at source {node} [{reason}]"
            else:
                cause = f"{verdict} [{reason}]"
            print(f"  {count:>4} update{'s' if count != 1 else ''} {cause}")
    if args.obs_json:
        import json as _json
        from pathlib import Path

        path = Path(args.obs_json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            _json.dumps(
                [
                    {
                        "repository": e.repository,
                        "item_id": e.item_id,
                        "update_id": e.update_id,
                        "verdict": e.verdict,
                        "node": e.node,
                        "dst": e.dst,
                        "reason": e.reason,
                        "time": e.time,
                        "path": list(e.path),
                    }
                    for pair_explanations in explanations.values()
                    for e in pair_explanations
                ],
                indent=2,
            )
            + "\n"
        )
        print(f"[explanations: {path}]")


def main(argv: list[str] | None = None) -> None:
    args = build_parser().parse_args(argv)
    setup_cli_logging(getattr(args, "log_level", None))

    if getattr(args, "command", None) == "obs":
        handlers = {
            "trace": _obs_trace,
            "metrics": _obs_metrics,
            "explain": _obs_explain,
        }
        try:
            handlers[args.obs_command](args)
        except ConfigurationError as exc:
            raise SystemExit(str(exc)) from None
        return
    if getattr(args, "command", None) == "fleet":
        try:
            if args.fleet_command == "run":
                _fleet_run(args)
            else:
                _fleet_loadgen(args)
        except ConfigurationError as exc:
            raise SystemExit(str(exc)) from None
        return
    if getattr(args, "command", None) == "live":
        try:
            if args.live_command == "run":
                _live_run(args)
            else:
                _live_loadgen(args)
        except ConfigurationError as exc:
            raise SystemExit(str(exc)) from None
        return
    if getattr(args, "command", None) == "experiments":
        try:
            if args.experiments_command == "list":
                _experiments_list()
            elif args.experiments_command == "show":
                _experiments_show(args.name, args.exp_preset)
            else:
                _experiments_run(args)
        except ConfigurationError as exc:
            raise SystemExit(str(exc)) from None
        return
    config = _config_from_args(args, "")
    if args.degrees is not None:
        degrees = args.degrees
        configs = [config.with_(offered_degree=d) for d in degrees]
        results = run_sweep(configs, jobs=args.jobs)
        print(f"preset={args.preset} policy={args.policy} T={args.t:.0f}% "
              f"workload={config.workload.describe()} jobs={args.jobs}")
        for degree, result in zip(degrees, results):
            print(f"degree={degree:<4d} {result.summary()}")
        return

    result = run_simulation(config)

    print(f"preset={args.preset} policy={args.policy} T={args.t:.0f}% "
          f"workload={config.workload.describe()}")
    print(f"degree of cooperation : {result.effective_degree}"
          + (" (Eq. 2 controlled)" if args.controlled else ""))
    print(f"mean comm delay       : {result.avg_comm_delay_ms:.1f} ms")
    print(f"d3g depth/diameter    : {result.tree_stats.max_depth}"
          f"/{result.tree_stats.diameter_hops}")
    print(f"loss of fidelity      : {result.loss_of_fidelity:.3f} %")
    print(f"messages              : {result.messages}")
    print(f"source checks         : {result.source_checks}")
    print(f"events processed      : {result.events_processed}")
    if config.clients_per_repository:
        clients = config.n_repositories * config.clients_per_repository
        print(f"modeled clients       : {clients}")
        print(f"client checks/serves  : {result.counters.client_checks}"
              f"/{result.counters.client_messages}")
    if args.churn is not None:
        print(f"churn events          : {result.extras['churn_events']}")
        print(f"reconfiguration cost  : {result.reconfiguration_cost} "
              "resubscriptions")
        print(f"reconfiguration drops : {result.counters.drops}")
    if args.failures is not None:
        print(f"failure events        : {result.extras.get('failure_events', 0)} "
              f"({result.extras.get('crashes', 0)} crashes, "
              f"{result.extras.get('partitions', 0)} partitions)")
        print(f"messages dropped      : {result.counters.drops}")
        print(f"failover edge moves   : "
              f"{result.counters.edges_added + result.counters.edges_removed}")
        print(f"resyncs (checks/msgs) : {result.counters.resyncs} "
              f"({result.counters.resync_checks}"
              f"/{result.counters.resync_messages})")
    if args.adaptive is not None:
        print(f"drift ticks/triggered : {result.extras.get('adaptive_ticks', 0)}"
              f"/{result.extras.get('adaptive_triggered', 0)}")
        print(f"adaptive rewires      : "
              f"{result.extras.get('adaptive_rewires', 0)}")
        print(f"reconfiguration cost  : {result.reconfiguration_cost} "
              "resubscriptions")


if __name__ == "__main__":
    main()
