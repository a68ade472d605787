"""Static vs adaptive dissemination: the fidelity/cost trade-off.

The paper builds the LeLA ``d3g`` once and never revisits it; the
adaptive subsystem (:mod:`repro.engine.adaptive`) re-optimizes it online
when observed traffic drifts.  This experiment quantifies what that buys
under drifting workloads -- and what it costs, with reconfiguration
charged honestly: the comparison metric is **total cost** =
update messages + resubscriptions (every rewired edge is a renegotiated
subscription, exactly what ``CostCounters.reconfigurations`` charges).

For each workload the grid runs one *static* baseline (no adaptive
policy) and the cross product of adaptive policies
(window x threshold x scope x max_rewires, all sharing one cooldown).
A policy *dominates* the static baseline when it achieves strictly lower
loss of fidelity at equal-or-lower total cost.  ``collect`` reports the
dominating grid points per workload (``dominating``, possibly empty); it
does not judge them.  The claim -- on ``flash_crowd``, the drift pattern
adaptation exists for, at least one grid point dominates -- is gated
where it is made: by the tier-1 test of this experiment and by CI's
smoke run of the default grid at ``tiny``.
"""

from __future__ import annotations

from repro.engine.adaptive import AdaptivePolicy
from repro.engine.config import SimulationConfig
from repro.experiments import api
from repro.workloads import make_workload

__all__ = ["SPEC", "total_cost"]


def total_cost(result) -> int:
    """The honest cost of a run: update messages plus resubscriptions."""
    return result.counters.messages + result.counters.resubscriptions


def _workloads(ctx: api.ExperimentContext) -> tuple[str, ...]:
    return tuple(w for w in ctx.params["workloads"].split(",") if w.strip())


def _policies(ctx: api.ExperimentContext) -> tuple[AdaptivePolicy, ...]:
    scopes = tuple(s for s in ctx.params["scopes"].split(",") if s.strip())
    return tuple(
        AdaptivePolicy(
            window=window,
            threshold=threshold,
            cooldown=ctx.params["cooldown"],
            scope=scope,
            max_rewires=max_rewires,
        )
        for window in ctx.params["windows"]
        for threshold in ctx.params["thresholds"]
        for scope in scopes
        for max_rewires in ctx.params["max_rewires"]
    )


def _grid(
    ctx: api.ExperimentContext,
) -> tuple[tuple[str, ...], tuple[AdaptivePolicy, ...], tuple[SimulationConfig, ...]]:
    """Per workload: the static baseline first, then every policy."""
    base = ctx.base_config()
    workloads = _workloads(ctx)
    policies = _policies(ctx)
    configs: list[SimulationConfig] = []
    for name in workloads:
        workload_base = base.with_(workload=make_workload(name))
        configs.append(workload_base)
        configs.extend(
            workload_base.with_(adaptive=policy) for policy in policies
        )
    return workloads, policies, tuple(configs)


def _plan(ctx: api.ExperimentContext) -> tuple[SimulationConfig, ...]:
    _workload_names, _policies_grid, configs = _grid(ctx)
    return configs


def _policy_key(policy: AdaptivePolicy) -> str:
    return (
        f"w={policy.window:g},th={policy.threshold:g},"
        f"{policy.scope},mr={policy.max_rewires}"
    )


def _collect(ctx: api.ExperimentContext, results) -> dict:
    workloads, policies, _configs = _grid(ctx)
    stride = 1 + len(policies)
    payload: dict = {
        "preset": ctx.preset,
        "cost_metric": "messages + resubscriptions",
        "workloads": {},
    }
    for w, workload in enumerate(workloads):
        static = results[w * stride]
        static_cost = total_cost(static)
        rows = {}
        for p, policy in enumerate(policies):
            result = results[w * stride + 1 + p]
            cost = total_cost(result)
            rows[_policy_key(policy)] = {
                "loss": result.loss_of_fidelity,
                "messages": result.counters.messages,
                "resubscriptions": result.counters.resubscriptions,
                "total_cost": cost,
                "rewires": result.extras.get("adaptive_rewires", 0),
                "ticks": result.extras.get("adaptive_ticks", 0),
                "dominates": (
                    result.loss_of_fidelity < static.loss_of_fidelity
                    and cost <= static_cost
                ),
            }
        payload["workloads"][workload] = {
            "static": {
                "loss": static.loss_of_fidelity,
                "messages": static.counters.messages,
                "total_cost": static_cost,
            },
            "policies": rows,
            "dominating": sorted(
                key for key, row in rows.items() if row["dominates"]
            ),
        }
    return payload


def _render(payload: dict) -> str:
    lines = [
        "Adaptive vs static dissemination "
        f"(preset={payload['preset']}, cost = {payload['cost_metric']})",
    ]
    for workload, block in payload["workloads"].items():
        static = block["static"]
        lines.append("")
        lines.append(
            f"[{workload}] static: loss={static['loss']:.4f}% "
            f"cost={static['total_cost']}"
        )
        lines.append(
            f"{'policy':<34} {'loss%':>8} {'msgs':>8} {'resub':>6} "
            f"{'cost':>8} {'rewires':>7} {'dominates':>9}"
        )
        for key, row in block["policies"].items():
            lines.append(
                f"{key:<34} {row['loss']:>8.4f} {row['messages']:>8d} "
                f"{row['resubscriptions']:>6d} {row['total_cost']:>8d} "
                f"{row['rewires']:>7d} {str(row['dominates']):>9}"
            )
        if block["dominating"]:
            lines.append(f"dominating: {', '.join(block['dominating'])}")
        else:
            lines.append("dominating: none")
    return "\n".join(lines)


SPEC = api.register(api.ExperimentSpec(
    name="adaptive_tradeoff",
    description=(
        "Online drift-triggered re-optimization vs the static LeLA build "
        "across drifting workloads, with reconfiguration cost charged."
    ),
    params=(
        api.ParamSpec("workloads", "str", "flash_crowd,diurnal",
                      "comma-separated workload generators to compare on"),
        api.ParamSpec("windows", "floats", (30.0, 150.0),
                      "drift-estimation window lengths, simulated seconds"),
        api.ParamSpec("thresholds", "floats", (0.75, 1.5),
                      "relative drift thresholds that trigger re-optimization"),
        api.ParamSpec("scopes", "str", "subtree",
                      "comma-separated re-optimization scopes "
                      "(subtree/global)"),
        api.ParamSpec("cooldown", "float", 0.0,
                      "minimum simulated seconds between applied rewires"),
        api.ParamSpec("max_rewires", "ints", (1, 2),
                      "caps on applied rewires per run"),
    ),
    plan=_plan,
    collect=_collect,
    render=_render,
))
