"""Command-line entry point: run one dissemination simulation or sweep.

Examples::

    python -m repro                              # tiny preset, defaults
    python -m repro --preset small --t 100 --degree 8 --policy centralized
    python -m repro --controlled --degree 20     # Eq. (2) clamps the degree
    python -m repro --degrees 1,2,4,8 --jobs 4   # parallel degree sweep
    python -m repro --churn 2,1,2                # mid-run membership churn
    python -m repro --adaptive window=30,threshold=0.75  # online rewiring
    python -m repro --workload flash_crowd:intensity=1.2
    python -m repro --workload replay:path=my_traces/

The declarative experiment registry hangs off the ``experiments``
subcommand; ``run`` with no names regenerates every table and figure::

    python -m repro experiments list
    python -m repro experiments show figure3
    python -m repro experiments run figure3 figure8 --preset tiny --jobs 4
    python -m repro experiments run --preset small --jobs 4

The live repository network (real servers running the same algorithms)
hangs off the ``live`` subcommand::

    python -m repro live run --preset tiny
    python -m repro live run --transport tcp --time-scale 600 --duration 60
    python -m repro live run --preset tiny --clients 16

The multi-process fleet (the live network sharded across worker
processes, with sample-based anti-entropy resync on reconnect) hangs
off the ``fleet`` subcommand::

    python -m repro fleet run --workers 4 --preset tiny --time-scale 600
    python -m repro fleet run --workers 4 --preset tiny --clients 50

The observability layer (per-update trace spans, the metrics registry
and the fidelity-violation explainer) hangs off the ``obs``
subcommand::

    python -m repro obs trace --preset tiny --update 12
    python -m repro obs metrics --failures 2,1 --json metrics.json
    python -m repro obs explain --failures 2,1
"""

from __future__ import annotations

import argparse
import time
from contextlib import contextmanager
from typing import NamedTuple

from repro.core.dissemination import available_policies
from repro.engine import (
    SCALE_PRESETS,
    run_simulation,
    run_sweep,
    schedule_for_config,
)
from repro.engine.adaptive import parse_adaptive_spec
from repro.engine.churn import parse_churn_spec
from repro.engine.failures import failures_for_config, parse_failure_spec
from repro.errors import ConfigurationError, RefutedError
from repro.experiments.runner import preset_config
from repro.obs.logsetup import LOG_LEVELS, get_logger, setup_cli_logging
from repro.workloads import available_workloads, parse_workload_spec

__all__ = ["main"]


@contextmanager
def _reported_as(error: type[Exception]):
    """Re-raise a ``ConfigurationError`` (or an experiment's refuted
    ``check``) as ``error`` with its message: an argparse usage error
    while parsing, a clean exit while running."""
    try:
        yield
    except (ConfigurationError, RefutedError) as exc:
        raise error(str(exc)) from None


def _spec_type(parse):
    """An argparse ``type`` from one of the library's spec parsers."""

    def convert(text: str):
        with _reported_as(argparse.ArgumentTypeError):
            return parse(text)

    return convert


def _int_at_least(low: int, meaning: str):
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}"
            ) from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low} ({meaning})")
        return value

    return convert


def _degree_list(text: str) -> list[int]:
    try:
        degrees = [int(d) for d in text.split(",") if d.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if not degrees:
        raise argparse.ArgumentTypeError("expected at least one degree")
    return degrees


class _Option(NamedTuple):
    flag: str
    field: str | None  # the SimulationConfig field it overrides
    keyword: str | None  # the run-function keyword it passes
    spec: dict  # add_argument keywords: type, default, metavar, help, ...


def _option(flag: str, field: str | None = None, keyword: str | None = None,
            **spec) -> _Option:
    return _Option(flag, field, keyword, spec)


#: Every option of every command, declared once and keyed by its dest.
#: Each command picks its options from here by key; ``_config_from_args``
#: and ``_run_keywords`` read them back through the same rows.
_OPTIONS = {
    "preset": _option(
        "--preset", default="tiny", choices=sorted(SCALE_PRESETS),
        help="scale preset (default: %(default)s)",
    ),
    "policy": _option(
        "--policy", "policy", default="distributed",
        choices=available_policies(),
        help="dissemination policy (default: %(default)s)",
    ),
    "t": _option(
        "--t", "t_percent", type=float, default=80.0, metavar="PERCENT",
        help="share of stringent coherency tolerances (default: 80)",
    ),
    "seed": _option(
        "--seed", "seed", type=int, metavar="N",
        help="master seed of every run config (default: the preset's)",
    ),
    "degree": _option(
        "--degree", "offered_degree", type=int, metavar="N",
        help="offered degree of cooperation (default: preset value)",
    ),
    "degrees": _option(
        "--degrees", type=_degree_list, metavar="N,N,...",
        help="comma-separated degree sweep; one summary line per degree "
        "(runs through the parallel sweep subsystem)",
    ),
    "jobs": _option(
        "--jobs", type=_int_at_least(0, "0 = one worker per CPU"), default=1,
        metavar="N",
        help="sweep worker processes (1 = serial, 0 = one per CPU); "
        "results are bit-identical for every value",
    ),
    "churn": _option(
        "--churn", type=_spec_type(parse_churn_spec), metavar="J,D,U",
        help="synthetic mid-run churn: J late joins, D departures, U "
        "coherency changes, placed by a schedule derived from the seed "
        "(see repro.engine.churn)",
    ),
    "failures": _option(
        "--failures", type=_spec_type(parse_failure_spec), metavar="C,P",
        help="synthetic unplanned failures: C repository crash/recover "
        "pairs and P link down/up windows, placed by a schedule derived "
        "from the seed (see repro.engine.failures)",
    ),
    "loss": _option(
        "--loss", "message_loss_probability", type=float, metavar="P",
        help="seeded Bernoulli message-loss probability in [0, 1) "
        "(default: the config's, normally 0)",
    ),
    "adaptive": _option(
        "--adaptive", "adaptive", type=_spec_type(parse_adaptive_spec),
        metavar="K=V,...",
        help="online drift-triggered re-optimization, e.g. "
        "window=30,threshold=0.75,cooldown=0,scope=subtree,max_rewires=8 "
        "(empty value = defaults; see repro.engine.adaptive)",
    ),
    "workload": _option(
        "--workload", "workload", type=_spec_type(parse_workload_spec),
        metavar="NAME[:K=V,...]",
        help="update-stream workload, e.g. flash_crowd:intensity=1.2 or "
        f"replay:path=traces/ (names: {', '.join(available_workloads())}; "
        "default: table1, the paper's synthetic traces)",
    ),
    "controlled": _option(
        "--controlled", "controlled_cooperation", action="store_true",
        help="clamp the degree with Eq. (2)",
    ),
    "comp_delay": _option(
        "--comp-delay", "comp_delay_ms", type=float, metavar="MS",
        help="per-dependent computational delay (default: 12.5 ms)",
    ),
    "comm_delay": _option(
        "--comm-delay", "comm_target_ms", type=float, metavar="MS",
        help="target mean repo-to-repo delay (default: topology's own)",
    ),
    "clients": _option(
        "--clients", "clients_per_repository", type=int, metavar="N",
        help="modeled end-clients per repository (default: preset value; "
        "the scalability preset attaches 1000)",
    ),
    "log_level": _option(
        "--log-level", choices=LOG_LEVELS,
        help="verbosity of the repro.* loggers (default: info, which "
        "keeps the output identical to earlier print-based releases)",
    ),
    "name": _option("name", help="registered experiment name"),
    "names": _option(
        "names", nargs="*",
        help="registered experiment names (default: every one, in "
        "registry order)",
    ),
    "no_cache": _option(
        "--no-cache", action="store_true",
        help="recompute every point, ignoring the content-addressed cache",
    ),
    "cache_dir": _option(
        "--cache-dir", metavar="DIR",
        help="result-cache location (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro)",
    ),
    "artifacts": _option(
        "--artifacts", metavar="DIR",
        help="directory for per-experiment JSON artifacts (default: "
        "<cache-dir>/artifacts/<preset> when caching is on)",
    ),
    "param": _option(
        "--param", action="append", default=[], metavar="EXP.KEY=VALUE",
        help="typed experiment parameter, e.g. figure3.policy=distributed "
        "or figure3.t_values=100,50,0 (repeatable)",
    ),
    "workers": _option(
        "--workers", keyword="workers", type=int, default=2, metavar="N",
        help="worker processes the shards spread over (default: 2)",
    ),
    "transport": _option(
        "--transport", keyword="transport", default="inprocess",
        choices=("inprocess", "tcp"),
        help="inprocess = deterministic virtual time (bit-reproducible); "
        "tcp = real localhost sockets (default: inprocess)",
    ),
    "time_scale": _option(
        "--time-scale", keyword="time_scale", type=float, default=60.0,
        metavar="X",
        help="simulated seconds per wall second on sockets (default: 60; "
        "the inprocess transport runs virtual time)",
    ),
    "duration": _option(
        "--duration", keyword="duration", type=float, metavar="S",
        help="truncate the replay to the first S simulated seconds "
        "(default: the full trace span)",
    ),
    "heartbeat_interval": _option(
        "--heartbeat-interval", keyword="heartbeat_interval_s", type=float,
        default=0.5, metavar="S",
        help="per-link liveness-probe period in wall seconds; 0 disables "
        "(default: 0.5; socket runs only)",
    ),
    "sever_at": _option(
        "--sever-at", keyword="sever_at_s", type=float, metavar="S",
        help="fault injection: sever worker 0's outbound links at this "
        "simulated time, exercising reconnect + anti-entropy resync "
        "(default: off)",
    ),
    "json": _option(
        "--json", metavar="PATH",
        help="also write the full span stream / metrics snapshot as a "
        "JSON artifact",
    ),
    "update": _option(
        "--update", type=int, metavar="ID",
        help="show only this update's spans (default: all, capped by "
        "--limit)",
    ),
    "limit": _option(
        "--limit", type=int, default=40, metavar="N",
        help="span lines printed (default: 40; 0 = unlimited)",
    ),
}

#: Subcommand dests carry this prefix.  argparse parses a subcommand
#: *after* the top-level options and copies its defaults over them, so a
#: shared dest would silently clobber an explicit top-level value.
_LEAF = "leaf_"


def _add_options(parser: argparse.ArgumentParser, names, prefix: str,
                 **defaults) -> None:
    """Declare the ``names`` rows of ``_OPTIONS`` on ``parser``, with this
    command's ``defaults`` where they differ from the table's."""
    for name in names:
        opt = _OPTIONS[name]
        if opt.flag.startswith("-"):
            parser.add_argument(opt.flag, dest=prefix + name, **opt.spec)
        else:
            parser.add_argument(prefix + name, metavar=name, **opt.spec)
    parser.set_defaults(**{prefix + name: value for name, value in defaults.items()})


def command_options(args: argparse.Namespace) -> argparse.Namespace:
    """The options of the command ``args`` selects, by ``_OPTIONS`` key."""
    if args.command is None:
        return args
    return argparse.Namespace(**{
        key.removeprefix(_LEAF): value
        for key, value in vars(args).items()
        if key.startswith(_LEAF)
    })


def _config_from_args(args):
    """The run config a command's options describe."""
    overrides = {
        opt.field: getattr(args, name)
        for name, opt in _OPTIONS.items()
        if opt.field and getattr(args, name, None) is not None
    }
    config = preset_config(args.preset, **overrides)
    if getattr(args, "churn", None) is not None:
        joins, departs, updates = args.churn
        config = config.with_(
            churn=schedule_for_config(
                config, joins=joins, departs=departs, updates=updates
            )
        )
    if getattr(args, "failures", None) is not None:
        crashes, partitions = args.failures
        config = config.with_(
            failures=failures_for_config(
                config, crashes=crashes, partitions=partitions
            )
        )
    return config


def _run_keywords(args) -> dict:
    """The run-function keywords a command's options describe."""
    return {
        opt.keyword: getattr(args, name)
        for name, opt in _OPTIONS.items()
        if opt.keyword and hasattr(args, name)
    }


def _print_checks(counters) -> None:
    """The coherency-check lines, the same on every plane."""
    print(f"source checks         : {counters.source_checks}")
    print(f"repository checks     : {counters.repository_checks}")


def _print_clients(config, counters) -> None:
    """The modeled-client lines, the same on every plane."""
    if config.clients_per_repository:
        clients = config.n_repositories * config.clients_per_repository
        print(f"modeled clients       : {clients}")
        print(f"client checks/serves  : {counters.client_checks}"
              f"/{counters.client_messages}")


def _simulate(args) -> None:
    """The default command: one simulation, or a degree sweep."""
    config = _config_from_args(args)
    header = (f"preset={args.preset} policy={args.policy} T={args.t:.0f}% "
              f"workload={config.workload.describe()}")
    if args.degrees is not None:
        configs = [config.with_(offered_degree=d) for d in args.degrees]
        results = run_sweep(configs, jobs=args.jobs)
        print(f"{header} jobs={args.jobs}")
        for degree, result in zip(args.degrees, results):
            print(f"degree={degree:<4d} {result.summary()}")
        return

    result = run_simulation(config)

    print(header)
    print(f"degree of cooperation : {result.effective_degree}"
          + (" (Eq. 2 controlled)" if args.controlled else ""))
    print(f"mean comm delay       : {result.avg_comm_delay_ms:.1f} ms")
    print(f"d3g depth/diameter    : {result.tree_stats.max_depth}"
          f"/{result.tree_stats.diameter_hops}")
    print(f"loss of fidelity      : {result.loss_of_fidelity:.3f} %")
    print(f"messages              : {result.messages}")
    _print_checks(result.counters)
    print(f"events processed      : {result.events_processed}")
    _print_clients(config, result.counters)
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


def _experiments_list(args) -> None:
    from repro.experiments import api

    names = api.available_experiments()
    width = max(len(n) for n in names)
    for name in names:
        spec = api.get_experiment(name)
        print(f"{name:<{width}}  {spec.description}")


def _experiments_show(args) -> None:
    from repro.experiments import api

    spec = api.get_experiment(args.name)
    ctx = api.ExperimentContext(preset=args.preset, params=spec.resolve_params())
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
        f"\nplan ({args.preset} preset): {len(plan)} sweep configs, "
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
        params.setdefault(exp, {})[key] = spec.param(key).coerce(value)
    return params


def _experiments_run(args) -> None:
    from pathlib import Path

    from repro.experiments import api
    from repro.experiments.cache import ResultCache, default_cache_root

    known = api.available_experiments()
    names = list(dict.fromkeys(args.names)) or known
    unknown = [n for n in names if n not in known]
    if unknown:
        raise SystemExit(f"unknown experiments: {unknown}; choose from {known}")

    cache = None
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
        params_by_name=_parse_params(args.param, names),
        overrides={"seed": args.seed} if args.seed is not None else None,
        progress=get_logger("repro.experiments").info,
    )
    for name in names:
        print(f"\n{report.texts[name]}")
        print(f"[{name} done in {report.seconds[name]:.1f}s]")
    stats = report.stats
    print(f"\n[all done in {time.time() - start:.1f}s: "
          f"{stats.planned} planned points, {stats.distinct} distinct, "
          f"{stats.cache_hits} cached, {stats.total_simulated} simulated]")
    if report.artifacts:
        print(f"\n[artifacts: {artifacts_dir}]")


def _print_run(header: str, config, result) -> None:
    """The report lines every live and fleet run shares."""
    rate = result.delivered / result.wall_seconds if result.wall_seconds else 0.0
    print(header)
    print(f"observed loss of fidelity : {result.loss_of_fidelity:.3f} %")
    print(f"messages (repo plane)     : {result.messages}")
    _print_checks(result.counters)
    print(f"sent/delivered/dropped    : {result.sent}/{result.delivered}"
          f"/{result.dropped} (conserved={result.conserved})")
    print(f"replayed span             : {result.sim_span_s:.0f} s simulated")
    print(f"wall time                 : {result.wall_seconds:.2f} s "
          f"({rate:.0f} deliveries/s)")
    _print_clients(config, result.counters)


def _live_run(args) -> None:
    from repro.live import run_live

    config = _config_from_args(args)
    result = run_live(config, **_run_keywords(args))
    _print_run(f"preset={args.preset} policy={args.policy} "
               f"transport={result.transport} "
               f"workload={config.workload.describe()}", config, result)
    if args.failures is not None:
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
                  f"/{result.extras.get('reconnects', 0)}")
    if args.adaptive is not None:
        print(f"drift ticks/triggered     : "
              f"{result.extras.get('adaptive_ticks', 0)}"
              f"/{result.extras.get('adaptive_triggered', 0)}")
        print(f"adaptive rewires          : "
              f"{result.extras.get('adaptive_rewires', 0)} "
              f"({result.counters.resubscriptions} resubscriptions)")


def _fleet_run(args) -> None:
    from repro.fleet import run_fleet

    config = _config_from_args(args)
    result = run_fleet(config, **_run_keywords(args))
    _print_run(f"preset={args.preset} policy={args.policy} "
               f"workers={result.extras['workers']} "
               f"shards={result.extras['shard_sizes']}", config, result)
    print(f"queue stalls              : {result.extras['queue_stalls']}")
    if result.extras.get("reconnects") or result.counters.resyncs:
        print(f"reconnects                : "
              f"{result.extras.get('reconnects', 0)}")
        print(f"resyncs (checks/msgs)     : {result.counters.resyncs} "
              f"({result.counters.resync_checks}"
              f"/{result.counters.resync_messages})")
    if not result.conserved:
        raise SystemExit("fleet run violated wire conservation")


def _obs_run(args):
    """One traced run: the recorder rides out-of-band next to the config."""
    from repro.obs import TraceRecorder

    config = _config_from_args(args)
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
    print(f"preset={args.preset} policy={args.policy} "
          f"workload={config.workload.describe()}")
    print(f"updates traced        : {len(recorder.by_update())}")
    print(f"spans recorded        : {len(recorder)}")
    print(f"span economy          : {totals.messages} forwards, "
          f"{totals.deliveries} deliveries, {totals.drops} drops "
          f"(counters agree: "
          f"{totals.messages == result.counters.messages and totals.deliveries == result.counters.deliveries and totals.drops == result.counters.drops})")
    events = (
        recorder.spans(args.update)
        if args.update is not None
        else recorder.events
    )
    shown = events if args.limit == 0 else events[: args.limit]
    for ev in shown:
        print(_format_span(ev))
    if len(shown) < len(events):
        print(f"  ... {len(events) - len(shown)} more spans "
              f"(raise --limit or use --json)")
    if args.json:
        print(f"[trace: {recorder.write_json(args.json)}]")


def _obs_metrics(args) -> None:
    import json as _json

    config, recorder, result = _obs_run(args)
    del config, result
    snapshot = recorder.metrics.snapshot()
    if args.json:
        print(f"[metrics: {recorder.metrics.write_json(args.json)}]")
    else:
        print(_json.dumps(snapshot, indent=2))


def _obs_explain(args) -> None:
    from repro.obs import explain_loss_segments

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
    if args.json:
        import json as _json
        from pathlib import Path

        path = Path(args.json)
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


_RUN = ("preset", "policy", "t", "seed")
_LIVE = _RUN + ("transport", "time_scale", "duration", "failures", "loss",
                "adaptive", "heartbeat_interval", "clients")
_FLEET = ("workers",) + _RUN + ("time_scale", "duration", "loss",
                                "heartbeat_interval", "sever_at", "clients")
_OBS = _RUN + ("failures", "loss", "json")

#: The subcommands: ``command -> (help, description, actions)``, each
#: action ``name -> (handler, help, options[, default overrides])``.
_COMMANDS = {
    "experiments": (
        "declarative experiment registry: list | show | run",
        "Discover and run the registered experiments (the paper's "
        "tables/figures and the system extensions) through the shared "
        "cached execution plane.",
        {
            "list": (_experiments_list,
                     "names and descriptions of every registered experiment",
                     ()),
            "show": (_experiments_show,
                     "one experiment's description, parameter schema and plan",
                     ("name", "preset")),
            "run": (_experiments_run,
                    "run experiments (default: all) through the shared "
                    "cached sweep plane",
                    ("names", "preset", "jobs", "no_cache", "cache_dir",
                     "artifacts", "param", "seed"),
                    {"preset": "small"}),
        },
    ),
    "live": (
        "the live repository network: run",
        "Run the cooperative repository network for real: actual "
        "servers replaying the config's workload through the same "
        "LeLA d3g and coherency filter the simulator uses.",
        {
            "run": (_live_run, "replay the workload through a live network",
                    _LIVE),
        },
    ),
    "fleet": (
        "the multi-process live fleet: run",
        "Run the live repository network sharded across worker "
        "processes: each worker hosts a shard of the d3g, workers "
        "speak the hardened wire protocol over localhost TCP, and "
        "repositories anti-entropy-resync against their parents on "
        "reconnect.",
        {
            "run": (_fleet_run, "replay the workload through a sharded fleet",
                    _FLEET),
        },
    ),
    "obs": (
        "observability: trace | metrics | explain",
        "Run one traced simulation and inspect it: per-update trace "
        "spans, the metrics-registry snapshot, or the causal "
        "explanation of every fidelity-loss segment.  Tracing is "
        "attached out-of-band, so the traced run is bit-identical "
        "to the untraced one.",
        {
            "trace": (_obs_trace, "hop-by-hop span records of one traced run",
                      _OBS + ("update", "limit")),
            "metrics": (_obs_metrics,
                        "metrics-registry snapshot of one traced run", _OBS),
            "explain": (_obs_explain,
                        "name the hop and reason behind every fidelity-loss "
                        "segment", _OBS),
        },
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Run one cooperative-dissemination simulation "
            "(Shah et al., VLDB 2002 reproduction)."
        ),
    )
    _add_options(parser, (
        "preset", "policy", "t", "degree", "degrees", "jobs", "churn",
        "failures", "adaptive", "workload", "controlled", "comp_delay",
        "comm_delay", "clients", "seed", "log_level",
    ), "")
    parser.set_defaults(handler=_simulate)
    subcommands = parser.add_subparsers(
        dest="command", metavar="COMMAND",
        description="optional subcommands (default: run one simulation)",
    )
    for command, (help_, description, actions) in _COMMANDS.items():
        group = subcommands.add_parser(
            command, help=help_, description=description
        ).add_subparsers(metavar="ACTION", required=True)
        for action, (handler, action_help, options, *defaults) in actions.items():
            leaf = group.add_parser(action, help=action_help)
            _add_options(leaf, options, _LEAF, **(defaults[0] if defaults else {}))
            leaf.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> None:
    args = build_parser().parse_args(argv)
    setup_cli_logging(args.log_level)
    with _reported_as(SystemExit):
        args.handler(command_options(args))


if __name__ == "__main__":
    main()
