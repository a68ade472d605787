"""Figures 3 and 5-10: the paper's grid figures, declared as data.

The paper's evaluation is one experiment repeated over a small family of
grids: a *row family* (coherency mixes, policies, P% bands, preference
functions) against an *x-axis* (degree of cooperation, communication
delay, computational delay), every point scored by loss of fidelity.
:class:`Grid` states that shape once -- the row-major plan, the slice
back into one curve per row and the parameter schema are all derived
from the declaration -- and each figure below is one ``Grid`` plus the
prose that says which claim it reproduces.  :func:`panels` composes
several plan/collect pairs into one multi-panel experiment (Figure 7
here, the ablations in :mod:`repro.experiments.sensitivity`), so the
registry runner fans the whole figure out (and caches it) as a single
sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Sequence

from repro.engine.results import SimulationResult
from repro.experiments import api
from repro.experiments.defaults import (
    DEFAULT_COMM_DELAYS,
    DEFAULT_COMP_DELAYS,
    DEFAULT_P_VALUES,
    DEFAULT_T_VALUES,
    default_degrees,
)
from repro.experiments.runner import ExperimentResult, Series, report

__all__ = [
    "Axis",
    "Grid",
    "DEGREES",
    "COMM_DELAYS",
    "COMP_DELAYS",
    "figure",
    "panels",
]

#: One curve of a grid: its label and the config fields that select it.
Row = tuple[str, Mapping[str, Any]]


@dataclass(frozen=True)
class Axis:
    """A grid's x-axis: the list parameter swept and the field it sets.

    Attributes:
        name / kind / default / help: The axis's
            :class:`~repro.experiments.api.ParamSpec`.  A ``None``
            default means "derive the degree sweep from the preset's
            repository count"
            (:func:`~repro.experiments.defaults.default_degrees`).
        field: The :class:`~repro.engine.config.SimulationConfig` field
            each x value is written to.
        xlabel: Axis label of the rendered chart.
    """

    name: str
    kind: str
    default: Any
    help: str
    field: str
    xlabel: str

    @property
    def param(self) -> api.ParamSpec:
        return api.ParamSpec(self.name, self.kind, self.default, self.help)


DEGREES = Axis("degrees", "ints", None,
               "degree sweep (default: derived from the preset)",
               "offered_degree", "degree of cooperation")
COMM_DELAYS = Axis("comm_delays_ms", "floats", DEFAULT_COMM_DELAYS,
                   "target mean repo-to-repo delays (ms)",
                   "comm_target_ms", "mean comm delay (ms)")
COMP_DELAYS = Axis("comp_delays_ms", "floats", DEFAULT_COMP_DELAYS,
                   "per-dependent computational delays (ms)",
                   "comp_delay_ms", "comp delay (ms)")


@dataclass(frozen=True)
class Grid:
    """One chart: a row family swept along an axis, scored by fidelity loss.

    Attributes:
        title: Name of the rendered chart.
        axis: The x-axis.
        rows: ``params -> [(label, config fields), ...]`` -- one entry
            per curve, in plotting order.
        row_params: Parameters the row family reads.
        fixed_params: Parameters held constant over the grid; each is
            named after the config field it sets.
        fixed: Config fields held constant and not exposed as parameters.
        notes: Optional ``(results, width) -> dict`` hook adding
            ``notes`` to the chart; ``results`` is the row-major grid and
            ``width`` the number of x values.
    """

    title: str
    axis: Axis
    rows: Callable[[Mapping[str, Any]], Sequence[Row]]
    row_params: tuple[api.ParamSpec, ...] = ()
    fixed_params: tuple[api.ParamSpec, ...] = ()
    fixed: Mapping[str, Any] = field(default_factory=dict)
    notes: Callable[[Sequence[SimulationResult], int], dict] | None = None

    def _layout(self, ctx: api.ExperimentContext):
        base = ctx.base_config().with_(
            **self.fixed, **{p.name: ctx.params[p.name] for p in self.fixed_params}
        )
        xs = ctx.params[self.axis.name]
        if xs is None:
            xs = tuple(default_degrees(base.n_repositories))
        return base, xs, self.rows(ctx.params)

    def plan(self, ctx: api.ExperimentContext):
        """The grid's configs, row-major."""
        base, xs, rows = self._layout(ctx)
        # The delay axes run at full fan-out (the source serves every
        # repository directly); on the degree axis x itself is the fan-out.
        return tuple(
            base.with_(**{"offered_degree": base.n_repositories,
                          self.axis.field: x, **fields})
            for _label, fields in rows
            for x in xs
        )

    def collect(self, ctx: api.ExperimentContext, results) -> ExperimentResult:
        """Slice the row-major results back into one curve per row."""
        _base, xs, rows = self._layout(ctx)
        result = ExperimentResult(
            name=self.title,
            xlabel=self.axis.xlabel,
            ylabel="loss of fidelity (%)",
            xs=[float(x) for x in xs],
        )
        losses = [r.loss_of_fidelity for r in results]
        for row, (label, _fields) in enumerate(rows):
            ys = losses[row * len(xs):(row + 1) * len(xs)]
            result.series.append(Series(label=label, ys=ys))
        if self.notes is not None:
            result.notes.update(self.notes(results, len(xs)))
        return result


def panels(*parts) -> dict[str, Callable]:
    """Compose ``(plan, collect)`` pairs into one multi-panel experiment.

    Returns the ``plan`` / ``collect`` / ``render`` fields of an
    :class:`~repro.experiments.api.ExperimentSpec`: the plans are
    concatenated (one sweep, one cache pass for the whole figure), each
    panel collects its own slice, the payload is the list of panels and
    the report joins theirs.
    """

    def plan(ctx: api.ExperimentContext):
        return tuple(config for plan_part, _ in parts for config in plan_part(ctx))

    def collect(ctx: api.ExperimentContext, results) -> list[ExperimentResult]:
        collected: list[ExperimentResult] = []
        offset = 0
        for plan_part, collect_part in parts:
            n = len(plan_part(ctx))
            collected.append(collect_part(ctx, results[offset:offset + n]))
            offset += n
        return collected

    def render(collected: list[ExperimentResult]) -> str:
        return "\n\n".join(report(panel) for panel in collected)

    return dict(plan=plan, collect=collect, render=render)


def figure(name: str, description: str, *grids: Grid) -> api.ExperimentSpec:
    """Register ``grids`` as experiment ``name``.

    One grid is a single chart (payload: an ``ExperimentResult``);
    several are its panels (payload: the list).  The schema lists row
    parameters, then axes, then fixed parameters, each name once.
    """
    if len(grids) == 1:
        shape = dict(plan=grids[0].plan, collect=grids[0].collect, render=report)
    else:
        shape = panels(*((g.plan, g.collect) for g in grids))
    params = dict.fromkeys(
        [p for g in grids for p in g.row_params]
        + [g.axis.param for g in grids]
        + [p for g in grids for p in g.fixed_params]
    )
    return api.register(api.ExperimentSpec(
        name=name, description=description, params=tuple(params), **shape
    ))


# ------------------------------------------------------------ row families

_T_VALUES = api.ParamSpec("t_values", "floats", DEFAULT_T_VALUES,
                          "coherency-stringency mixes (T%)")
_T_PERCENT = api.ParamSpec("t_percent", "float", 80.0,
                           "coherency-stringency mix (T%)")


def _policy(help: str) -> api.ParamSpec:
    return api.ParamSpec("policy", "str", "centralized", help)


def _t_rows(params) -> list[Row]:
    return [(f"T={t:.0f}", {"t_percent": t}) for t in params["t_values"]]


def _with_and_without_control(rows: Sequence[Row]) -> list[Row]:
    """Each row plain, then again under Eq. (2) control (the ``W`` curves)."""
    return [
        (label + suffix, {**fields, "controlled_cooperation": controlled})
        for controlled, suffix in ((False, ""), (True, "W"))
        for label, fields in rows
    ]


# ----------------------------------------------------------------- figures

# Figure 3: loss of fidelity vs. degree of cooperation (the U-curve).
#
# Seven T values; the degree of cooperation offered by every node swept
# from 1 (the d3t degenerates to a chain) to the repository count (the
# source serves everyone directly).  The paper uses the source-based
# (centralised) dissemination algorithm as the baseline here.
#
# Expected shape: U for stringent mixes -- communication delays dominate
# on the left, computational (queueing) delays on the right -- flattening
# to zero as T drops.
FIGURE3 = Grid(
    title="Figure 3: need for limiting cooperation",
    axis=DEGREES,
    rows=_t_rows,
    row_params=(_T_VALUES,),
    fixed_params=(_policy("dissemination policy for the baseline"),),
    fixed={"controlled_cooperation": False},
)
figure(
    "figure3",
    "Loss of fidelity vs degree of cooperation is a U-curve; "
    "coherency stringency deepens it (need for limiting cooperation).",
    FIGURE3,
)

# Figure 5: no cooperation, varying communication delays.
#
# The source serves every repository directly (degree of cooperation =
# repository count).  The mean repository-to-repository delay is swept
# from 0 to 125 ms.  The paper's finding: fidelity barely reacts to the
# communication delay because the loss is dominated by the computational
# queueing that piles up at the source -- cooperation is needed
# regardless of network speed.
FIGURE5 = replace(
    FIGURE3,
    title="Figure 5: no cooperation, varying communication delays",
    axis=COMM_DELAYS,
)
figure(
    "figure5",
    "Without cooperation, faster networks do not rescue fidelity: "
    "the loss is computation-dominated at the source.",
    FIGURE5,
)

# Figure 6: no cooperation, varying computational delays.
#
# The source serves every repository directly while the per-dependent
# computational delay sweeps 0..25 ms.  The paper's finding: loss of
# fidelity worsens steeply with computational delay -- the source
# saturates -- especially under stringent coherency mixes.  Together with
# Figure 5 this shows the source bottleneck is computational, motivating
# cooperation.
FIGURE6 = replace(
    FIGURE3,
    title="Figure 6: no cooperation, varying computational delays",
    axis=COMP_DELAYS,
)
figure(
    "figure6",
    "Without cooperation, loss of fidelity grows steeply with "
    "computational delay: the source saturates.",
    FIGURE6,
)


# Figure 7: performance with controlled cooperation.  Three panels, each
# an earlier grid re-run with Eq. (2) choosing every node's degree:
#
# - (a) the Figure 3 sweep with Eq. (2) clamping each node's degree of
#   cooperation: the U-curve becomes an L -- offering more cooperative
#   resources beyond ``coopDegree`` neither helps nor hurts.
# - (b) the Figure 5 communication-delay sweep: Eq. (2) raises the degree
#   as delays grow, keeping loss within a few percent.
# - (c) the Figure 6 computational-delay sweep: Eq. (2) lowers the degree
#   as computation gets pricier, again keeping loss low.
def _controlled(grid: Grid, title: str, axis: Axis, notes) -> Grid:
    return replace(
        grid,
        title=title,
        axis=axis,
        fixed_params=(_policy("dissemination policy under Eq. (2) control"),),
        fixed={"controlled_cooperation": True},
        notes=notes,
    )


def _eq2_degrees_along_sweep(results, width: int) -> dict:
    return {"Eq. (2) degrees along the sweep":
            [r.effective_degree for r in results[-width:]]}


figure(
    "figure7",
    "Controlled cooperation (Eq. 2) turns the U-curve into an L and "
    "keeps loss low across communication and computational delays.",
    _controlled(
        FIGURE3,
        "Figure 7(a): controlled cooperation, base case",
        replace(DEGREES, xlabel="offered degree of cooperation",
                help="panel (a) degree sweep (default: derived from preset)"),
        lambda results, width: {
            "coopDegree (Eq. 2 clamp at max offered)": results[-1].effective_degree
        },
    ),
    _controlled(
        FIGURE5,
        "Figure 7(b): controlled cooperation, varying communication delays",
        replace(COMM_DELAYS,
                help="panel (b) target mean repo-to-repo delays (ms)"),
        _eq2_degrees_along_sweep,
    ),
    _controlled(
        FIGURE6,
        "Figure 7(c): controlled cooperation, varying computational delays",
        replace(COMP_DELAYS,
                help="panel (c) per-dependent computational delays (ms)"),
        _eq2_degrees_along_sweep,
    ),
)

# Figure 8: the importance of filtering during update propagation.
#
# Two systems over the degree-of-cooperation sweep:
#
# - ``All updates``: every distinct source value is pushed to every
#   interested repository (the flooding policy -- the paper emulates it
#   with a maximally stringent tolerance);
# - ``Filtered``: coherency-aware dissemination with a lax mix (T=0), so
#   only updates of interest flow.
#
# The paper's finding: flooding loses fidelity across the whole sweep --
# the extra messages inflate both network and queueing overheads -- while
# the filtered system stays flat near zero.
figure(
    "figure8",
    "Coherency-aware filtering scales across the cooperation sweep; "
    "flooding every update does not.",
    Grid(
        title="Figure 8: importance of filtering during update propagation",
        axis=DEGREES,
        rows=lambda params: [("All updates", {"policy": "flooding"}),
                             ("Filtered", {"policy": "distributed"})],
        fixed={"t_percent": 0.0, "controlled_cooperation": False},
        notes=lambda results, width: {
            "messages (all updates, max degree)": results[width - 1].messages,
            "messages (filtered, max degree)": results[-1].messages,
        },
    ),
)

# Figure 9: sensitivity to the load controller's P% admission band.
#
# LeLA admits as parents every candidate whose preference factor is
# within P% of the level minimum.  The paper sweeps P over {1, 5, 10, 25}
# with unlimited cooperation (plain curves) and with controlled
# cooperation (the ``W`` curves):
#
# - tiny P concentrates all service on one parent per level (overload);
# - huge P splits a child across many parents, burning push connections
#   and deepening the tree;
# - once the degree of cooperation is controlled, P stops mattering.
figure(
    "figure9",
    "LeLA's P% admission band is secondary once the degree of "
    "cooperation is controlled.",
    Grid(
        title="Figure 9: effect of different P% values",
        axis=DEGREES,
        rows=lambda params: _with_and_without_control(
            [(f"P={p:.0f}", {"p_percent": p}) for p in params["p_values"]]
        ),
        row_params=(api.ParamSpec("p_values", "floats", DEFAULT_P_VALUES,
                                  "admission-band percentages to sweep"),),
        fixed_params=(_T_PERCENT, _policy("dissemination policy")),
    ),
)

# Figure 10: sensitivity to the preference function (P1 vs. P2).
#
# P1 is the paper's preference factor (communication delay x load proxy /
# data availability); P2 drops the availability term.  The paper's
# finding: the choice has little impact at small degrees, and once the
# degree of cooperation is controlled (the ``W`` curves) the two are
# indistinguishable (< ~1% apart) -- the degree of cooperation is the
# first-order knob, LeLA's internals are second-order.
figure(
    "figure10",
    "The LeLA preference function (P1 vs P2) is secondary once the "
    "degree of cooperation is controlled.",
    Grid(
        title="Figure 10: effect of different preference functions",
        axis=DEGREES,
        rows=lambda params: _with_and_without_control(
            [(pref.upper(), {"preference": pref}) for pref in ("p1", "p2")]
        ),
        fixed_params=(_T_PERCENT, _policy("dissemination policy")),
    ),
)
