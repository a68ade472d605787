"""The result of one run, on the engine or any live plane."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.metrics import CostCounters
from repro.core.tree import TreeStats

__all__ = ["SimulationResult"]


@dataclass
class SimulationResult:
    """Everything one run produced.

    Attributes:
        loss_of_fidelity: The headline metric -- system-wide mean loss
            of fidelity, percent (0 is perfect).
        per_repository_loss: Mean loss per repository.
        counters: Message/check accounting (Figure 11 metrics).
        tree_stats: Shape of the ``d3g`` used for the run.
        effective_degree: Degree of cooperation actually enforced
            (after Eq. 2 clamping, when controlled cooperation is on).
        avg_comm_delay_ms: Measured average node-to-node delay input to
            Eq. (2).
        events_processed: Discrete events executed -- source updates,
            control-timeline entries, deliveries and a pull run's poll
            hops -- by the kernel or a live plane's due queue.
        sim_span_s: Observation-window length (trace span).
        extras: Free-form per-experiment additions.
    """

    loss_of_fidelity: float
    per_repository_loss: dict[int, float]
    counters: CostCounters
    tree_stats: TreeStats
    effective_degree: int
    avg_comm_delay_ms: float
    events_processed: int
    sim_span_s: float
    extras: dict = field(default_factory=dict)

    @classmethod
    def scored(
        cls, setup, core, span: float, events_processed: int,
        duration: float | None = None, **more,
    ) -> "SimulationResult":
        """The result a run of ``setup`` left in its reconfiguration
        ``core``, on any plane: the core's segments scored over the
        delivery logs (inside the window ``duration`` truncates to), its
        counters and extras, the graph it ended on, and the setup's
        degree and delay.  ``more`` holds a subclass's own fields."""
        accumulator, per_pair = core.score(setup.traces, duration)
        return cls(
            loss_of_fidelity=accumulator.system_loss(),
            per_repository_loss=accumulator.per_repository(),
            counters=core.counters,
            # Adaptive runs report the graph they *ended* on.
            tree_stats=core.graph.stats(),
            effective_degree=setup.effective_degree,
            avg_comm_delay_ms=setup.avg_comm_delay_ms,
            events_processed=events_processed,
            sim_span_s=span,
            extras={
                "per_pair_loss": per_pair,
                "workload": setup.config.workload.name,
                **core.extras(),
            },
            **more,
        )

    @property
    def fidelity(self) -> float:
        """System fidelity in percent (100 = perfect)."""
        return 100.0 - self.loss_of_fidelity

    @property
    def messages(self) -> int:
        """Total update messages sent (Figure 11(b) metric)."""
        return self.counters.messages

    @property
    def source_checks(self) -> int:
        """Checks performed at the source (Figure 11(a) metric)."""
        return self.counters.source_checks

    @property
    def reconfiguration_cost(self) -> int:
        """Subscriptions (re)negotiated by mid-run churn (0 when static)."""
        return self.counters.resubscriptions

    def summary(self) -> str:
        """One-line human-readable digest."""
        text = (
            f"loss={self.loss_of_fidelity:.2f}% "
            f"messages={self.counters.messages} "
            f"source_checks={self.counters.source_checks} "
            f"degree={self.effective_degree} "
            f"depth<=|{self.tree_stats.max_depth}|"
        )
        if self.counters.reconfigurations:
            text += (
                f" reconf={self.counters.reconfigurations}"
                f"/cost={self.counters.resubscriptions}"
            )
        return text
