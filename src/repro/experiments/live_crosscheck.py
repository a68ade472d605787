"""Cross-validate the simulator against every live plane, cell by cell.

The live planes -- the in-process wire and TCP (:mod:`repro.live`) and
a 2-worker fleet (:mod:`repro.fleet`) -- run the engine's own rules, so
agreement is not a tolerance but equality.  This experiment is the
generated table of every :data:`PLANES` × policy × :data:`FEATURES`
cell.  The plan is the engine's run of each policy × feature config,
through the shared cached sweep; ``collect`` runs each plane on each
config, never cached, since a cache key carries no code fingerprint.

Each cell's state is declared here, once: ``refused`` for the
:data:`REFUSED` cells (the plane raised
:class:`~repro.errors.ConfigurationError` before running; its message
is recorded) and ``exact`` for the rest (:func:`compare` finds nothing
that differs).  A :data:`KNOWN_DEFECTS` cell that misses its state
reads ``known defect``.  :func:`check`, run once the artifact is
written, raises one :class:`~repro.errors.RefutedError` naming every
other cell that misses its state -- a field that differs, a plane that
raised anything else, a refusal not declared or a declared one that
ran -- and every :data:`STRICT_DEFECTS` cell that no longer fails.
"""

from __future__ import annotations

import dataclasses

from repro.core.dissemination.filtering import FILTERED_POLICIES
from repro.engine.adaptive import AdaptivePolicy
from repro.engine.churn import schedule_for_config
from repro.engine.failures import failures_for_config
from repro.engine.results import SimulationResult
from repro.errors import ConfigurationError, RefutedError
from repro.experiments import api
from repro.obs.logsetup import get_logger

__all__ = ["CLIENTS", "FEATURES", "KNOWN_DEFECTS", "PLANES",
           "REFUSED", "SPEC", "STRICT_DEFECTS", "TIME_SCALE", "check", "compare",
           "expected", "fault", "table"]

#: Simulated seconds per wall second on the TCP and fleet planes.
TIME_SCALE = 2000.0

#: Modeled clients per repository in every cell: blocks this wide build
#: staircases of many runs and reach the serving pass's bisect.
CLIENTS = 300


def _loss(config):
    return config.with_(message_loss_probability=0.05)


def _churn(config):
    return config.with_(
        churn=schedule_for_config(config, joins=1, departs=1, updates=1)
    )


def _failures(config):
    return config.with_(failures=failures_for_config(config, crashes=1, partitions=1))


def _adaptive(config):
    return config.with_(adaptive=AdaptivePolicy(window=20.0, threshold=0.3))


def _reconfig(config):
    # Composed as the CLI composes --adaptive, --churn and --failures.
    return _failures(_churn(_adaptive(config)))


#: The feature column: each a transform of the preset config.
FEATURES = {
    "static": lambda config: config,
    "loss": _loss,
    "churn": _churn,
    "failures": _failures,
    "adaptive": _adaptive,
    "reconfig": _reconfig,
    "all": lambda config: _reconfig(_loss(config)),
}


def _fleet(config):
    from repro.fleet import run_fleet

    return run_fleet(config, workers=2, time_scale=TIME_SCALE)


def _live(transport: str, **pacing):
    def plane(config):
        from repro.live import run_live

        return run_live(config, transport, **pacing)

    return plane


#: The live planes, each a ``config -> LiveRunResult`` run.
PLANES = {
    "inprocess": _live("inprocess"),
    "tcp": _live("tcp", time_scale=TIME_SCALE),
    "fleet": _fleet,
}

#: The cells a plane refuses up front, ``(plane, feature)``: the fleet
#: runs no schedule and no adaptation.
REFUSED = frozenset(
    ("fleet", feature) for feature in FEATURES if feature not in ("static", "loss")
)

#: Cells that miss their state with ROADMAP item 11(a)'s open defect (a
#: TCP node may serve a late row after a later-stamped one), ``(plane,
#: policy, feature) -> what goes wrong`` at ``tiny`` on its own seed.
KNOWN_DEFECTS = {
    ("tcp", "centralized", "reconfig"): (
        "repository 6 forwards item 1 to the late joiner 11 about 0.1 s "
        "late, so pair (11, 1)'s loss differs (40 of 40 runs)"
    ),
    ("tcp", "flooding", "all"): (
        "a log gets a copy stamped before the entry it follows and "
        "scoring refuses it (16 of 40 runs)"
    ),
    ("tcp", "centralized", "all"): (
        "a log gets a copy stamped before the entry it follows and "
        "scoring refuses it (1 of 50 runs)"
    ),
}

#: The known defects that fail in every run at ``tiny`` on its own seed:
#: there :func:`check` fails one that agrees, so its mend shows.
STRICT_DEFECTS = frozenset({("tcp", "centralized", "reconfig")})


def expected(plane: str, feature: str) -> str:
    """The state a cell is declared to end in."""
    return "refused" if (plane, feature) in REFUSED else "exact"


def compare(sim, live) -> list[str]:
    """What differs between an engine result and a live one: each
    :class:`~repro.engine.results.SimulationResult` field (a dataclass
    value named field by field), then each ``extras`` key both carry.
    Empty when the two runs agree."""
    differs = [
        name
        for f in dataclasses.fields(SimulationResult)
        if f.name != "extras"
        for name in _differs(f.name, getattr(sim, f.name), getattr(live, f.name))
    ]
    return differs + [
        f"extras[{key!r}]"
        for key in sorted(sim.extras.keys() & live.extras.keys())
        if sim.extras[key] != live.extras[key]
    ]


def _differs(name: str, sim, live) -> list[str]:
    if sim == live:
        return []
    if dataclasses.is_dataclass(sim) and type(sim) is type(live):
        return [
            differ
            for f in dataclasses.fields(sim)
            for differ in _differs(
                f"{name}.{f.name}", getattr(sim, f.name), getattr(live, f.name)
            )
        ] or [name]
    return [name]


def _cells() -> list[tuple[str, str]]:
    """The ``(policy, feature)`` rows, in plan order."""
    return [(policy, feature) for policy in FILTERED_POLICIES for feature in FEATURES]


def _config(ctx: api.ExperimentContext, policy: str, feature: str):
    base = ctx.base_config().with_(clients_per_repository=CLIENTS, policy=policy)
    return FEATURES[feature](base)


def _plan(ctx: api.ExperimentContext):
    return tuple(_config(ctx, policy, feature) for policy, feature in _cells())


def _run_cell(plane: str, feature: str, config, sim) -> dict:
    try:
        live = PLANES[plane](config)
    except ConfigurationError as exc:
        return {"state": "refused", "reason": str(exc)}
    except Exception as exc:  # any other error fails the cell, not the rest
        get_logger(__name__).exception("live_crosscheck: %s × %s", plane, feature)
        return {"state": "raised", "differs": [f"{type(exc).__name__}: {exc}"]}
    differs = compare(sim, live)
    return {"state": "differs", "differs": differs} if differs else {"state": "exact"}


def table(ctx: api.ExperimentContext, results) -> dict:
    """Every live plane's cell on every planned config, given the
    engine's ``results`` of the plan -- the experiment's payload."""
    engine: dict = {policy: {} for policy in FILTERED_POLICIES}
    cells: dict = {plane: {policy: {} for policy in FILTERED_POLICIES} for plane in PLANES}
    for (policy, feature), sim in zip(_cells(), results):
        engine[policy][feature] = {
            "loss": sim.loss_of_fidelity,
            "messages": sim.counters.messages,
            "drops": sim.counters.drops,
            "resyncs": sim.counters.resyncs,
            "reconfigurations": sim.counters.reconfigurations,
            "edges_added": sim.counters.edges_added,
            "rewires": sim.extras.get("adaptive_rewires", 0),
        }
        config = _config(ctx, policy, feature)
        for plane in PLANES:
            outcome = _run_cell(plane, feature, config, sim)
            defect = KNOWN_DEFECTS.get((plane, policy, feature))
            if defect and outcome["state"] != expected(plane, feature):
                outcome = {"state": "known defect", "reason": defect, "outcome": outcome}
            cells[plane][policy][feature] = outcome
    return {
        "preset": ctx.preset,
        # Whether this is the config KNOWN_DEFECTS were measured on.
        "defects_measured": ctx.preset == "tiny" and not ctx.overrides,
        "clients_per_repository": CLIENTS,
        "time_scale": TIME_SCALE,
        "engine": engine,
        "cells": cells,
    }


def fault(payload: dict, plane: str, policy: str, feature: str) -> str | None:
    """What is wrong with one cell of ``payload``, or ``None``."""
    outcome = payload["cells"][plane][policy][feature]
    state, declared = outcome["state"], expected(plane, feature)
    if state == declared:
        if payload["defects_measured"] and (plane, policy, feature) in STRICT_DEFECTS:
            return f"{state}, but declared a known defect that fails every run"
        return None
    if state == "known defect":
        return None
    if "differs" in outcome:
        return ", ".join(outcome["differs"])
    return f"{state} where {declared} is declared ({outcome.get('reason', 'ran')})"


def check(payload: dict) -> None:
    """Raise one RefutedError naming every cell :func:`fault` finds
    wrong, with what is wrong in it."""
    failed = [
        f"{plane} × {policy} × {feature}: {why}"
        for plane, by_policy in payload["cells"].items()
        for policy, by_feature in by_policy.items()
        for feature in by_feature
        if (why := fault(payload, plane, policy, feature))
    ]
    if failed:
        raise RefutedError(
            f"live_crosscheck: {len(failed)} cell(s) miss their declared "
            "state:\n  " + "\n  ".join(failed)
        )


def _render(payload: dict) -> str:
    cells = payload["cells"]
    lines = [
        f"Plane agreement: engine vs live planes (preset={payload['preset']}, "
        f"{payload['clients_per_repository']} clients per repository, "
        f"TCP and fleet at time scale {payload['time_scale']:g})",
        "",
        f"{'policy':<12} {'feature':<9} {'loss%':>8} {'msgs':>6} {'drops':>6} "
        f"{'resyncs':>7} {'reconf':>6} {'added':>5} {'rewires':>7}  "
        + " ".join(f"{plane:<12}" for plane in cells).rstrip(),
    ]
    # A refusal holds per plane and feature, a known defect per cell;
    # each reason once.
    reasons: dict = {}
    for policy, by_feature in payload["engine"].items():
        for feature, row in by_feature.items():
            outcomes = {plane: cells[plane][policy][feature] for plane in cells}
            for plane, cell in outcomes.items():
                if "reason" in cell:
                    where = (plane, policy, feature) if "outcome" in cell else (plane, feature)
                    reasons[" × ".join(where)] = f"{cell['state']}: {cell['reason']}"
            lines.append(
                f"{policy:<12} {feature:<9} {row['loss']:>8.4f} "
                f"{row['messages']:>6d} {row['drops']:>6d} {row['resyncs']:>7d} "
                f"{row['reconfigurations']:>6d} {row['edges_added']:>5d} "
                f"{row['rewires']:>7d}  "
                + " ".join(f"{cell['state']:<12}" for cell in outcomes.values()).rstrip()
            )
    lines.append("")
    lines.extend(f"{where} {reason}" for where, reason in reasons.items())
    return "\n".join(lines)


SPEC = api.register(api.ExperimentSpec(
    name="live_crosscheck",
    description=(
        "Every live plane (in-process, TCP, 2-worker fleet) runs every "
        "policy × feature cell exactly as the simulator does, or refuses it."
    ),
    plan=_plan,
    collect=table,
    render=_render,
    check=check,
))
