"""Declarative experiment API: specs, a registry and a unified runner.

Every table/figure of the paper -- and every system extension grown
since -- is registered here as an :class:`ExperimentSpec`: discoverable
data rather than an ad-hoc module entry point.  A spec declares

- ``name`` / ``description`` -- what the experiment reproduces,
- ``params`` -- a typed parameter schema (:class:`ParamSpec`), resolved
  and validated before any work happens,
- ``plan(ctx)`` -- the frozen :class:`~repro.engine.config.SimulationConfig`
  grid the experiment needs, and
- ``collect(ctx, results)`` -- the reduction of raw
  :class:`~repro.engine.results.SimulationResult`\\ s into the
  experiment's payload (an
  :class:`~repro.experiments.runner.ExperimentResult` for most figures),
  and optionally
- ``check(payload)`` -- the verdict on the experiment's claim, run once
  the payload's artifact is written.

The unified runner (:func:`run_experiments`) executes the **union** of
all requested experiments' plans through one deduplicated
:func:`~repro.engine.sweep.run_sweep`, backed by a content-addressed
:class:`~repro.experiments.cache.ResultCache`: a config shared by
several figures is simulated once, and a warm rerun skips simulation
entirely.  Collected payloads are persisted as schema-versioned JSON
artifacts per experiment.

Discoverability is wired into the CLI::

    python -m repro experiments list
    python -m repro experiments show figure3
    python -m repro experiments run figure3 figure8 --preset tiny --jobs 4
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.engine.config import SimulationConfig
from repro.engine.results import SimulationResult
from repro.engine.sweep import run_sweep
from repro.errors import ConfigurationError
from repro.experiments.cache import ResultCache, fingerprint
from repro.experiments.runner import preset_config
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "ParamSpec",
    "ExperimentSpec",
    "ExperimentContext",
    "ExecutionStats",
    "RunReport",
    "register",
    "get_experiment",
    "available_experiments",
    "load_builtin_experiments",
    "run_experiment",
    "run_experiments",
    "to_jsonable",
    "write_artifact",
]

#: Version stamped into every persisted experiment artifact.
ARTIFACT_SCHEMA_VERSION = 1

def _parse_bool_text(text: str) -> bool:
    mapping = {"true": True, "1": True, "yes": True, "on": True,
               "false": False, "0": False, "no": False, "off": False}
    lowered = text.strip().lower()
    if lowered not in mapping:
        raise ValueError(f"not a boolean: {text!r}")
    return mapping[lowered]


def _normalize_bool(value: Any) -> bool:
    # bool(value) would turn the strings "false"/"0" into True; route
    # strings through the same parser the CLI uses instead.
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        return _parse_bool_text(value)
    raise ValueError(f"not a boolean: {value!r}")


#: Coercion functions for the parameter-schema kinds: CLI text -> value.
_KIND_COERCERS: dict[str, Callable[[str], Any]] = {
    "int": int,
    "float": float,
    "str": str,
    "bool": _parse_bool_text,
    "floats": lambda text: tuple(float(v) for v in text.split(",") if v.strip()),
    "ints": lambda text: tuple(int(v) for v in text.split(",") if v.strip()),
}

#: Normalisers applied to values supplied programmatically.
_KIND_NORMALIZERS: dict[str, Callable[[Any], Any]] = {
    "int": int,
    "float": float,
    "str": str,
    "bool": _normalize_bool,
    "floats": lambda v: tuple(float(x) for x in v),
    "ints": lambda v: tuple(int(x) for x in v),
}


@dataclass(frozen=True)
class ParamSpec:
    """One declared experiment parameter.

    Attributes:
        name: Parameter name (a key of ``ctx.params``; ``--param
            EXP.NAME=VALUE`` on the command line).
        kind: Declared type: ``int``, ``float``, ``str``, ``bool``,
            ``floats`` (comma-separated tuple) or ``ints``.
        default: Value used when the caller supplies nothing. ``None``
            conventionally means "derive from the preset at plan time".
        help: One-line description shown by ``experiments show``.
    """

    name: str
    kind: str
    default: Any = None
    help: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KIND_COERCERS:
            raise ConfigurationError(
                f"unknown param kind {self.kind!r}; "
                f"choose from {sorted(_KIND_COERCERS)}"
            )

    def coerce(self, text: str) -> Any:
        """Parse a CLI string into this parameter's declared type."""
        return self._convert(_KIND_COERCERS, text)

    def normalize(self, value: Any) -> Any:
        """Normalise a programmatic value (lists become tuples, etc.)."""
        if value is None:
            return None
        return self._convert(_KIND_NORMALIZERS, value)

    def _convert(
        self, converters: Mapping[str, Callable[[Any], Any]], value: Any
    ) -> Any:
        try:
            converted = converters[self.kind](value)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"parameter {self.name!r} expects {self.kind}, got {value!r}"
            ) from None
        # An empty sweep axis plans nothing and renders a chart with no
        # curves (or indexes past the end of its results): refuse it here.
        if converted == ():
            raise ConfigurationError(
                f"parameter {self.name!r} expects at least one value, "
                f"got {value!r}"
            )
        return converted


@dataclass
class ExperimentContext:
    """Everything a spec's ``plan``/``collect`` may draw on.

    Attributes:
        preset: Scale-preset name (``tiny`` / ``small`` / ``paper``).
        params: Resolved, validated parameter values (schema defaults
            filled in).
        cache: Content-addressed result cache, or ``None`` (disabled).
        overrides: Raw :class:`SimulationConfig` field overrides applied
            on top of the preset.
    """

    preset: str = "small"
    params: Mapping[str, Any] = field(default_factory=dict)
    cache: ResultCache | None = None
    overrides: Mapping[str, Any] = field(default_factory=dict)

    def base_config(self) -> SimulationConfig:
        """The preset config with the context's overrides applied."""
        return preset_config(self.preset, **dict(self.overrides))


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: declarative data plus two functions.

    Attributes:
        name: Registry name (``figure3``, ``table1``, ...).
        description: One-line summary of the claim it reproduces.
        params: The typed parameter schema.
        plan: ``ctx -> tuple[SimulationConfig, ...]`` -- the frozen grid
            of sweep points this experiment needs.  May be empty for an
            experiment that simulates nothing (Table 1's trace
            statistics, computed in ``collect``).
        collect: ``(ctx, results) -> payload`` -- reduces the raw
            results (aligned 1:1 with the planned grid) into the
            experiment's output shape.
        render: ``payload -> str`` -- the human-readable report.
        check: ``payload -> None``, raising
            :class:`~repro.errors.RefutedError` when the payload refutes
            the experiment's claim; :func:`run_experiments` calls it
            once the artifact is written, so a refuted run leaves its
            evidence (the CLI prints the error's message and exits 1).
    """

    name: str
    description: str
    plan: Callable[[ExperimentContext], tuple[SimulationConfig, ...]]
    collect: Callable[[ExperimentContext, tuple[SimulationResult, ...]], Any]
    render: Callable[[Any], str]
    params: tuple[ParamSpec, ...] = ()
    check: Callable[[Any], None] | None = None

    def param(self, name: str) -> ParamSpec:
        """Look up one parameter's spec by name.

        Raises:
            ConfigurationError: if the schema has no such parameter.
        """
        for spec in self.params:
            if spec.name == name:
                return spec
        raise ConfigurationError(
            f"experiment {self.name!r} has no parameter {name!r}; "
            f"it declares {[p.name for p in self.params] or 'none'}"
        )

    def resolve_params(self, params: Mapping[str, Any] | None = None) -> dict[str, Any]:
        """Validate supplied parameters and fill schema defaults.

        Raises:
            ConfigurationError: on unknown names or uncoercible values.
        """
        supplied = dict(params or {})
        known = {p.name for p in self.params}
        unknown = sorted(set(supplied) - known)
        if unknown:
            raise ConfigurationError(
                f"experiment {self.name!r} has no parameter(s) {unknown}; "
                f"it declares {sorted(known) or 'none'}"
            )
        resolved: dict[str, Any] = {}
        for spec in self.params:
            if spec.name in supplied:
                resolved[spec.name] = spec.normalize(supplied[spec.name])
            else:
                resolved[spec.name] = spec.default
        return resolved


_REGISTRY: dict[str, ExperimentSpec] = {}

#: The built-in experiments in the paper's presentation order (also
#: the order a bare ``experiments run`` runs them in).
_BUILTIN_NAMES = (
    "table1",
    "figure3",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "scalability",
    "sensitivity",
    "pull_baseline",
    "hybrid_tradeoff",
    "churn_resilience",
    "failure_resilience",
    "workload_sensitivity",
    "adaptive_tradeoff",
    "live_crosscheck",
)

#: Modules whose import registers them.  The grid figures (3, 5-10)
#: share one module, so names cannot be read off this list.
_BUILTIN_MODULES = (
    "repro.experiments.table1",
    "repro.experiments.figures",
    "repro.experiments.figure11",
    "repro.experiments.scalability",
    "repro.experiments.sensitivity",
    "repro.experiments.pull_baseline",
    "repro.experiments.hybrid_tradeoff",
    "repro.experiments.churn_resilience",
    "repro.experiments.failure_resilience",
    "repro.experiments.workload_sensitivity",
    "repro.experiments.adaptive_tradeoff",
    "repro.experiments.live_crosscheck",
)


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add a spec to the registry (idempotent per name+identity).

    Raises:
        ConfigurationError: when a *different* spec already holds the name.
    """
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing is not spec:
        raise ConfigurationError(
            f"experiment name {spec.name!r} is already registered"
        )
    _REGISTRY[spec.name] = spec
    return spec


def load_builtin_experiments() -> None:
    """Import every built-in experiment module (registration side effect)."""
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)


def available_experiments() -> list[str]:
    """Registered experiment names: built-ins in the paper's presentation
    order, then third-party registrations in registration order."""
    load_builtin_experiments()
    ordered = [name for name in _BUILTIN_NAMES if name in _REGISTRY]
    ordered += [name for name in _REGISTRY if name not in _BUILTIN_NAMES]
    return ordered


def get_experiment(name: str) -> ExperimentSpec:
    """Look up a registered spec by name.

    Raises:
        ConfigurationError: on an unknown name.
    """
    load_builtin_experiments()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {name!r}; choose from {available_experiments()}"
        ) from None


@dataclass
class ExecutionStats:
    """What one execution of a plan union actually did.

    Attributes:
        planned: Sweep points requested across all plans (with
            duplicates).
        distinct: Unique configs after cross-experiment deduplication.
        cache_hits: Distinct configs answered from the result cache.
        simulated: Distinct configs actually simulated this run.
    """

    planned: int = 0
    distinct: int = 0
    cache_hits: int = 0
    simulated: int = 0

    @property
    def deduplicated(self) -> int:
        """Planned points that were satisfied by another plan's config."""
        return self.planned - self.distinct

    @property
    def total_simulated(self) -> int:
        """Simulations performed this run (0 on a warm rerun)."""
        return self.simulated


def execute_plan(
    configs: Sequence[SimulationConfig],
    jobs: int | None = 1,
    cache: ResultCache | None = None,
    stats: ExecutionStats | None = None,
) -> list[SimulationResult]:
    """Run a config sequence through the deduplicated, cached fan-out.

    Results are aligned to the input order; duplicated configs share one
    result object.  It is :func:`~repro.engine.sweep.run_sweep` over
    ``cache`` (bit-identical for every ``jobs`` value), plus the tally
    of what it did into ``stats``.
    """
    ordered = list(configs)
    before = cache.stats.hits if cache is not None else 0
    results = run_sweep(ordered, jobs, cache)
    if stats is not None:
        distinct = len(dict.fromkeys(ordered))
        hits = cache.stats.hits - before if cache is not None else 0
        stats.planned += len(ordered)
        stats.distinct += distinct
        stats.cache_hits += hits
        stats.simulated += distinct - hits
    return results


def run_experiment(
    name: str,
    preset: str = "small",
    jobs: int | None = 1,
    cache: ResultCache | None = None,
    params: Mapping[str, Any] | None = None,
    overrides: Mapping[str, Any] | None = None,
) -> Any:
    """Plan, execute and collect one experiment; return its payload."""
    report = run_experiments(
        [name], preset, jobs, cache,
        params_by_name={name: params or {}}, overrides=overrides,
    )
    return report.payloads[name]


@dataclass
class RunReport:
    """Outcome of one :func:`run_experiments` invocation.

    Attributes:
        payloads: ``name -> collected payload`` in execution order.
        texts: ``name -> rendered report``.
        seconds: ``name -> collect-phase wall time``.
        stats: What the shared execution plane did.
        sweep_seconds: Wall time of the shared simulate/lookup phase.
        artifacts: ``name -> path`` of persisted JSON artifacts (empty
            when no artifact directory was given).
    """

    payloads: dict[str, Any] = field(default_factory=dict)
    texts: dict[str, str] = field(default_factory=dict)
    seconds: dict[str, float] = field(default_factory=dict)
    stats: ExecutionStats = field(default_factory=ExecutionStats)
    sweep_seconds: float = 0.0
    artifacts: dict[str, Path] = field(default_factory=dict)


def run_experiments(
    names: Iterable[str],
    preset: str = "small",
    jobs: int | None = 1,
    cache: ResultCache | None = None,
    artifacts_dir: str | Path | None = None,
    params_by_name: Mapping[str, Mapping[str, Any]] | None = None,
    overrides: Mapping[str, Any] | None = None,
    progress: Callable[[str], None] | None = None,
) -> RunReport:
    """Run several experiments through one shared execution plane.

    The union of every requested experiment's plan is deduplicated and
    executed in a single cached sweep fan-out, then each experiment's
    ``collect`` reduces its own slice.  Payloads are persisted as
    schema-versioned JSON artifacts when ``artifacts_dir`` is given.
    """
    params_by_name = params_by_name or {}
    report = RunReport()
    say = progress or (lambda _line: None)

    specs: list[ExperimentSpec] = [get_experiment(name) for name in names]
    ctxs: dict[str, ExperimentContext] = {}
    plans: dict[str, tuple[SimulationConfig, ...]] = {}
    for spec in specs:
        ctx = ExperimentContext(
            preset=preset,
            params=spec.resolve_params(params_by_name.get(spec.name)),
            cache=cache,
            overrides=dict(overrides or {}),
        )
        ctxs[spec.name] = ctx
        plans[spec.name] = tuple(spec.plan(ctx))

    union: list[SimulationConfig] = [
        config for spec in specs for config in plans[spec.name]
    ]
    start = time.perf_counter()
    results = execute_plan(union, jobs=jobs, cache=cache, stats=report.stats)
    report.sweep_seconds = time.perf_counter() - start
    cache_clause = ""
    if cache is not None:
        cache_clause = (
            f" [cache: {cache.stats.hits} hits, {cache.stats.misses} misses, "
            f"{cache.stats.writes} writes]"
        )
    say(
        f"execution plane: {report.stats.planned} planned points, "
        f"{report.stats.distinct} distinct "
        f"({report.stats.deduplicated} deduplicated), "
        f"{report.stats.cache_hits} cached, "
        f"{report.stats.simulated} simulated "
        f"in {report.sweep_seconds:.1f}s{cache_clause}"
    )

    by_config: dict[SimulationConfig, SimulationResult] = dict(
        zip(union, results)
    )
    for spec in specs:
        ctx = ctxs[spec.name]
        t0 = time.perf_counter()
        payload = spec.collect(
            ctx, tuple(by_config[config] for config in plans[spec.name])
        )
        report.seconds[spec.name] = time.perf_counter() - t0
        report.payloads[spec.name] = payload
        report.texts[spec.name] = spec.render(payload)
        if artifacts_dir is not None:
            report.artifacts[spec.name] = write_artifact(
                artifacts_dir, spec.name, preset, ctx.params, payload
            )
        if spec.check is not None:
            spec.check(payload)

    if artifacts_dir is not None:
        registry = MetricsRegistry()
        registry.counter("plan.planned").inc(report.stats.planned)
        registry.counter("plan.distinct").inc(report.stats.distinct)
        registry.counter("plan.deduplicated").inc(report.stats.deduplicated)
        registry.counter("plan.cache_hits").inc(report.stats.cache_hits)
        registry.counter("plan.simulated").inc(report.stats.simulated)
        registry.gauge("plan.sweep_seconds").set(report.sweep_seconds)
        if cache is not None:
            registry.counter("cache.hits").inc(cache.stats.hits)
            registry.counter("cache.misses").inc(cache.stats.misses)
            registry.counter("cache.writes").inc(cache.stats.writes)
        registry.write_json(Path(artifacts_dir) / "metrics.json")

    return report


def to_jsonable(obj: Any) -> Any:
    """Convert a payload tree to JSON-encodable values.

    Dataclasses become objects tagged with their class name; tuples
    become lists; dict keys are stringified; numpy scalars/arrays become
    plain numbers/lists.
    """
    import numpy as np

    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, Path):
        return str(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        encoded = {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        encoded["__dataclass__"] = type(obj).__qualname__
        return encoded
    return repr(obj)


def write_artifact(
    directory: str | Path,
    name: str,
    preset: str,
    params: Mapping[str, Any],
    payload: Any,
) -> Path:
    """Persist one experiment's payload as a schema-versioned JSON file."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.json"
    document = {
        "schema": "repro.experiment-artifact",
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "experiment": name,
        "preset": preset,
        "params": to_jsonable(dict(params)),
        "payload": to_jsonable(payload),
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def plan_fingerprint(configs: Sequence[SimulationConfig]) -> str:
    """Digest of a whole plan (used by ``experiments show`` and tests)."""
    return fingerprint(tuple(configs))
