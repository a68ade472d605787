"""Figure 11: centralised vs. distributed dissemination overheads.

Same workload, same d3g, both exact policies:

- (a) *server checks*: the centralised source examines every unique
  coherency tolerance per update (the paper measures ~50% more checks
  than the distributed approach's per-dependent checks);
- (b) *messages*: both approaches send (essentially) the same number of
  update messages -- and both guarantee 100% fidelity absent delays --
  so the distributed approach is preferable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import api

__all__ = ["Figure11Result", "SPEC"]


@dataclass
class Figure11Result:
    """The two bar pairs of Figure 11."""

    centralized_source_checks: int
    distributed_source_checks: int
    centralized_messages: int
    distributed_messages: int
    centralized_loss: float
    distributed_loss: float

    @property
    def check_ratio(self) -> float:
        """Centralised / distributed source checks (paper: ~1.5)."""
        if self.distributed_source_checks == 0:
            return float("inf")
        return self.centralized_source_checks / self.distributed_source_checks

    @property
    def message_ratio(self) -> float:
        """Centralised / distributed messages (paper: ~1.0)."""
        if self.distributed_messages == 0:
            return float("inf")
        return self.centralized_messages / self.distributed_messages


def _base(ctx: api.ExperimentContext):
    base = ctx.base_config().with_(t_percent=ctx.params["t_percent"])
    if ctx.params["offered_degree"] is not None:
        base = base.with_(offered_degree=ctx.params["offered_degree"])
    return base.with_(controlled_cooperation=ctx.params["controlled_cooperation"])


def _plan(ctx: api.ExperimentContext):
    base = _base(ctx)
    return (base.with_(policy="centralized"), base.with_(policy="distributed"))


def _collect(ctx: api.ExperimentContext, results) -> Figure11Result:
    central, dist = results
    return Figure11Result(
        centralized_source_checks=central.counters.source_checks,
        distributed_source_checks=dist.counters.source_checks,
        centralized_messages=central.messages,
        distributed_messages=dist.messages,
        centralized_loss=central.loss_of_fidelity,
        distributed_loss=dist.loss_of_fidelity,
    )


def _render(r: Figure11Result) -> str:
    lines = [
        "== Figure 11: centralised vs. distributed dissemination ==",
        "(a) source checks:",
        f"    centralised  {r.centralized_source_checks}",
        f"    distributed  {r.distributed_source_checks}",
        f"    ratio        {r.check_ratio:.2f}  (paper: ~1.5)",
        "(b) messages:",
        f"    centralised  {r.centralized_messages}",
        f"    distributed  {r.distributed_messages}",
        f"    ratio        {r.message_ratio:.2f}  (paper: ~1.0)",
        "loss of fidelity:",
        f"    centralised  {r.centralized_loss:.2f}%",
        f"    distributed  {r.distributed_loss:.2f}%",
    ]
    return "\n".join(lines)


SPEC = api.register(api.ExperimentSpec(
    name="figure11",
    description=(
        "The centralised source performs ~50% more coherency checks than "
        "the distributed approach; message counts are comparable."
    ),
    params=(
        api.ParamSpec("t_percent", "float", 80.0,
                      "coherency-stringency mix (T%)"),
        api.ParamSpec("controlled_cooperation", "bool", True,
                      "clamp the degree with Eq. (2)"),
        api.ParamSpec("offered_degree", "int", None,
                      "offered degree (default: preset value)"),
    ),
    plan=_plan,
    collect=_collect,
    render=_render,
))
