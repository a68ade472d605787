"""Adaptive push-pull hybrid (Section 8's outlook, after Bhide et al.).

The paper's conclusions name *"adaptive combinations of push and pull"*
as an alternative dissemination mechanism for the repository overlay.
This module implements the canonical split: subscriptions with
*stringent* tolerances ride the cooperative push d3g (they need
immediacy and the d3g amortises the source's work), while *lax*
subscriptions poll with an adaptive TTR (they tolerate staleness, and
polling keeps no per-dependent state at the parents).

Modelling note: the push and pull planes are simulated independently,
so the source's computational queue is not shared between them.  This
under-counts source contention relative to a fully merged simulation;
the hybrid's numbers are therefore a (slightly optimistic) bound, which
is sufficient for the qualitative comparison the experiment draws.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.fidelity import FidelityAccumulator
from repro.core.interests import InterestProfile
from repro.core.lela import build_d3g
from repro.core.preference import get_preference_function
from repro.engine.builder import SimulationSetup, build_setup
from repro.engine.config import SimulationConfig
from repro.engine.pull import PullSimulation, TtrConfig
from repro.engine.simulation import make_simulation
from repro.errors import ConfigurationError
from repro.sim.rng import RandomStreams

__all__ = ["HybridResult", "split_profiles", "run_hybrid_simulation"]


@dataclass
class HybridResult:
    """Merged outcome of the two dissemination planes."""

    loss_of_fidelity: float
    per_repository_loss: dict[int, float]
    push_messages: int
    pull_messages: int
    push_pairs: int
    pull_pairs: int
    threshold_c: float

    @property
    def messages(self) -> int:
        """Total traffic across both planes."""
        return self.push_messages + self.pull_messages


def split_profiles(
    profiles: dict[int, InterestProfile], threshold_c: float
) -> tuple[dict[int, InterestProfile], dict[int, InterestProfile]]:
    """Split every profile into (push part, pull part) by tolerance.

    Subscriptions with ``c <= threshold_c`` go to the push plane; the
    rest pull.  Repositories with an empty part are omitted from that
    plane.
    """
    # Written so NaN fails too; +inf is legal (everything pushes).
    if not threshold_c > 0:
        raise ConfigurationError(f"threshold_c must be positive, got {threshold_c!r}")
    push: dict[int, InterestProfile] = {}
    pull: dict[int, InterestProfile] = {}
    for repo, profile in profiles.items():
        tight = {x: c for x, c in profile.requirements.items() if c <= threshold_c}
        loose = {x: c for x, c in profile.requirements.items() if c > threshold_c}
        if tight:
            push[repo] = InterestProfile(repository=repo, requirements=tight)
        if loose:
            pull[repo] = InterestProfile(repository=repo, requirements=loose)
    return push, pull


def run_hybrid_simulation(
    config: SimulationConfig,
    threshold_c: float = 0.1,
    ttr: TtrConfig | None = None,
    base: SimulationSetup | None = None,
) -> HybridResult:
    """Run the push plane and pull plane and merge their fidelity.

    Args:
        config: Full workload parameterisation (profiles are generated
            from it exactly as for a pure-push run, then split).
        threshold_c: Tolerance boundary between push and pull
            (default $0.1 -- exactly the paper's stringent/lax boundary).
        ttr: Pull-plane TTR policy; defaults to an adaptive 1-60 s TTR.
        base: Optional setup to recycle network/traces from.
    """
    if ttr is None:
        ttr = TtrConfig(mode="adaptive", ttr_s=10.0, ttr_min_s=1.0, ttr_max_s=60.0)
    if config.churn is not None:
        raise ConfigurationError(
            "the push/pull hybrid does not support mid-run churn; "
            "drop the churn schedule or use the pure-push engine"
        )
    full_setup = build_setup(config, base=base)
    push_profiles, pull_profiles = split_profiles(full_setup.profiles, threshold_c)

    per_pair: dict[tuple[int, int], float] = {}
    push_messages = 0
    pull_messages = 0

    if push_profiles:
        graph = build_d3g(
            profiles=[push_profiles[r] for r in sorted(push_profiles)],
            source=full_setup.source,
            comm_delay_ms=full_setup.network.delay_ms,
            offered_degree=full_setup.effective_degree,
            preference=get_preference_function(config.preference),
            p_percent=config.p_percent,
            rng=RandomStreams(config.seed).stream("hybrid-lela"),
        )
        push_setup = SimulationSetup(
            config=config,
            network=full_setup.network,
            items=full_setup.items,
            traces=full_setup.traces,
            profiles=push_profiles,
            graph=graph,
            effective_degree=full_setup.effective_degree,
            avg_comm_delay_ms=full_setup.avg_comm_delay_ms,
        )
        push_result = make_simulation(push_setup).run()
        per_pair.update(push_result.extras["per_pair_loss"])
        push_messages = push_result.messages

    if pull_profiles:
        pull_setup = SimulationSetup(
            config=config,
            network=full_setup.network,
            items=full_setup.items,
            traces=full_setup.traces,
            profiles=pull_profiles,
            graph=full_setup.graph,  # stats only; pull uses no tree
            effective_degree=0,
            avg_comm_delay_ms=full_setup.avg_comm_delay_ms,
        )
        pull_result = PullSimulation(pull_setup, ttr).run()
        per_pair.update(pull_result.extras["per_pair_loss"])
        pull_messages = pull_result.messages

    accumulator = FidelityAccumulator()
    for (repo, item_id), loss in per_pair.items():
        accumulator.add(repo, item_id, loss)
    return HybridResult(
        loss_of_fidelity=accumulator.system_loss(),
        per_repository_loss=accumulator.per_repository(),
        push_messages=push_messages,
        pull_messages=pull_messages,
        push_pairs=sum(len(p) for p in push_profiles.values()),
        pull_pairs=sum(len(p) for p in pull_profiles.values()),
        threshold_c=threshold_c,
    )
