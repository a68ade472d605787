"""Multiple sources (Section 4's deferred extension).

The paper assumes one source per inserted repository for exposition and
notes that *"the extension to deal with multiple sources is fairly
straightforward"*.  This module implements it:

- Each data item is **owned by exactly one source**; sources are
  distinct physical nodes (the base source plus re-purposed router
  nodes, which the routing tables are extended to cover).
- LeLA runs once per source over that source's items, with repository
  push-connection budgets **shared across all trees**: a repository
  serving three dependents for source A's items has three fewer
  connections to offer source B (built sequentially, the paper's
  one-at-a-time spirit).
- The simulation is shared: the engine takes one ``(graph, root, item
  ids)`` tree per source and keeps one FIFO backlog per node, so a
  repository relaying items of several sources queues all of that work
  in one place (unlike the push/pull hybrid, nothing is approximated
  here).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.interests import InterestProfile
from repro.core.lela import LelaBuilder
from repro.core.preference import get_preference_function
from repro.core.tree import DisseminationGraph
from repro.engine.builder import SimulationSetup, build_setup
from repro.engine.config import SimulationConfig
from repro.engine.simulation import VectorizedSimulation
from repro.errors import ConfigurationError, TreeConstructionError
from repro.sim.rng import RandomStreams

__all__ = ["MultiSourceSetup", "build_multisource_setup", "MultiSourceSimulation", "run_multisource_simulation"]


@dataclass
class MultiSourceSetup:
    """A single-source setup plus the per-source trees and item map."""

    base: SimulationSetup
    sources: list[int]
    item_owner: dict[int, int]
    graphs: dict[int, DisseminationGraph] = field(default_factory=dict)

    @property
    def config(self) -> SimulationConfig:
        return self.base.config

    def items_of(self, source: int) -> list[int]:
        """Item ids owned by one source, ascending."""
        return sorted(i for i, s in self.item_owner.items() if s == source)


def _restricted(profile: InterestProfile, item_ids: set[int]) -> InterestProfile | None:
    reqs = {x: c for x, c in profile.requirements.items() if x in item_ids}
    if not reqs:
        return None
    return InterestProfile(repository=profile.repository, requirements=reqs)


def build_multisource_setup(
    config: SimulationConfig, n_sources: int
) -> MultiSourceSetup:
    """Partition items round-robin over ``n_sources`` and build all trees.

    Source 0 is the topology's source node; additional sources take over
    the highest-id router nodes (physically present, previously passive).

    Raises:
        ConfigurationError: if the topology has too few routers to host
            the extra sources.
    """
    if n_sources < 1:
        raise ConfigurationError(f"n_sources must be >= 1, got {n_sources!r}")
    if config.churn is not None:
        raise ConfigurationError(
            "the multi-source extension does not support mid-run churn; "
            "drop the churn schedule or use the single-source engine"
        )
    base = build_setup(config)
    router_ids = list(base.network.topology.router_ids)
    if n_sources - 1 > len(router_ids):
        raise ConfigurationError(
            f"{n_sources} sources need {n_sources - 1} routers to host them; "
            f"topology has {len(router_ids)}"
        )
    sources = [base.source] + [int(r) for r in router_ids[-(n_sources - 1):]] if n_sources > 1 else [base.source]
    base.network = base.network.with_endpoints(sources[1:])

    item_owner = {
        item.item_id: sources[i % n_sources] for i, item in enumerate(base.items)
    }

    # Shared capacity: budgets deplete as each source's tree is built.
    remaining = {r: base.effective_degree for r in base.repositories}
    streams = RandomStreams(config.seed)
    graphs: dict[int, DisseminationGraph] = {}
    for source in sources:
        owned = set(
            item_id for item_id, owner in item_owner.items() if owner == source
        )
        budgets = dict(remaining)
        budgets[source] = base.effective_degree
        builder = LelaBuilder(
            source=source,
            comm_delay_ms=base.network.delay_ms,
            offered_degree=budgets,
            preference=get_preference_function(config.preference),
            p_percent=config.p_percent,
            rng=streams.stream(f"lela-src{source}"),
        )
        for repo in sorted(base.profiles):
            restricted = _restricted(base.profiles[repo], owned)
            if restricted is not None:
                builder.insert(restricted)
        graph = builder.graph
        graph.validate(max_dependents=budgets)
        graphs[source] = graph
        for repo in base.repositories:
            if repo in graph.nodes:
                used = graph.nodes[repo].n_dependents
                remaining[repo] = max(0, remaining[repo] - used)

    return MultiSourceSetup(
        base=base, sources=sources, item_owner=item_owner, graphs=graphs
    )


class MultiSourceSimulation(VectorizedSimulation):
    """The engine over several per-source trees."""

    def __init__(self, multi: MultiSourceSetup) -> None:
        self._multi = multi
        super().__init__(multi.base, trees=self._graphs())

    def _graphs(self):
        """One ``(graph, root, item ids)`` triple per source that owns
        items; the reference oracle accepts the same list as ``trees``."""
        triples = []
        for source in self._multi.sources:
            items = self._multi.items_of(source)
            if items:
                triples.append((self._multi.graphs[source], source, items))
        return triples

    def _score(self, span: float, events_processed: int):
        result = super()._score(span, events_processed)
        result.extras["sources"] = list(self._multi.sources)
        result.extras["item_owner"] = dict(self._multi.item_owner)
        return result


def run_multisource_simulation(
    config: SimulationConfig,
    n_sources: int,
    setup: MultiSourceSetup | None = None,
):
    """Build (or reuse) a multi-source setup and run it end to end.

    Raises:
        TreeConstructionError: if shared budgets leave some source's
            repositories unplaceable (raise ``offered_degree``).
    """
    if setup is None:
        setup = build_multisource_setup(config, n_sources)
    if setup.config != config:
        raise TreeConstructionError("setup was built for a different config")
    return MultiSourceSimulation(setup).run()
