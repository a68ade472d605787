"""The network facade the dissemination engine queries.

The engine never routes per hop: a message from ``u`` to ``v`` simply
arrives after the precomputed minimal-path end-to-end delay, as in the
paper's simulation.  :class:`NetworkModel` bundles the topology and the
routing tables and answers delay/hop queries between *logical* nodes
(the source and the repositories).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.network.delays import ParetoDelayModel
from repro.network.routing import RoutingTables, build_routing
from repro.network.topology import Topology, generate_topology

__all__ = ["NetworkModel", "build_network"]


@dataclass
class NetworkModel:
    """End-to-end view of the physical network.

    Attributes:
        topology: The underlying random physical graph.
        routing: Delay and hop tables between the logical nodes.
        raw: The unscaled network this one was derived from by uniform
            delay scaling (``None`` when this network *is* the raw one).
            Rescaling always starts from ``raw``, so a chain of rescales
            is bit-identical to a single rescale of the original --
            the property the sweep layer's determinism guarantee needs.
        scale: The factor this network's delays are ``raw``'s times.
    """

    topology: Topology
    routing: RoutingTables
    raw: "NetworkModel | None" = None
    scale: float = 1.0

    def __post_init__(self) -> None:
        # Rescaled copies share these two arrays with the raw network.
        self.topology.edges.setflags(write=False)
        self.routing.hops.setflags(write=False)

    @property
    def source(self) -> int:
        """Node id of the data source."""
        return self.topology.source

    @property
    def repository_ids(self) -> np.ndarray:
        """Node ids of all repositories."""
        return self.topology.repository_ids

    def delay_s(self, u: int, v: int) -> float:
        """End-to-end delay between nodes ``u`` and ``v`` in **seconds**."""
        return float(self.routing.dist_ms[u, v]) / 1000.0

    def delay_ms(self, u: int, v: int) -> float:
        """End-to-end delay between nodes ``u`` and ``v`` in milliseconds."""
        return float(self.routing.dist_ms[u, v])

    def hops(self, u: int, v: int) -> int:
        """Hop count along the minimal-delay path between ``u`` and ``v``."""
        return int(self.routing.hops[u, v])

    def mean_repo_delay_ms(self) -> float:
        """Average end-to-end delay between distinct logical nodes.

        This is the ``avg communication delay`` input to the paper's
        Eq. (2): the expected delay of one dissemination hop between a
        repository (or the source) and another repository.
        """
        return self._logical_mean(self.routing.dist_ms)

    def mean_repo_hops(self) -> float:
        """Average hop count between distinct logical nodes."""
        return self._logical_mean(self.routing.hops)

    def _logical_mean(self, table: np.ndarray) -> float:
        """Mean of a routing table's entries between distinct logical nodes."""
        n = 1 + self.topology.n_repositories
        if n < 2:
            return 0.0
        return float(table[:n, :n][~np.eye(n, dtype=bool)].mean())

    def with_endpoints(self, routers: Iterable[int]) -> "NetworkModel":
        """Return a copy that also answers queries about ``routers``.

        The multi-source extension re-purposes routers as sources; the
        routing tables otherwise stop at the last repository.
        """
        raw = self.raw or self
        extended = NetworkModel(
            topology=raw.topology, routing=build_routing(raw.topology, routers)
        )
        return extended if self.raw is None else extended._uniformly_scaled(self.scale)

    def scaled_delays(self, mean_ms: float) -> "NetworkModel":
        """Return a copy with all link delays rescaled to a new mean.

        Keeps the topology and relative link costs fixed so that delay
        sweeps (Figures 5, 7b) vary exactly one thing.  A zero or negative
        target collapses every delay to zero (the idealised-network case
        used by the fidelity theorems).  Uniform scaling preserves
        shortest paths, so the delay table is rescaled rather than
        recomputed.
        """
        current_mean = float(self.topology.delays_ms.mean())
        if mean_ms <= 0.0 or current_mean <= 0.0:
            return self._uniformly_scaled(0.0)
        raw = self.raw or self
        return self._uniformly_scaled(mean_ms / float(raw.topology.delays_ms.mean()))

    def with_repo_mean_delay(self, target_ms: float) -> "NetworkModel":
        """Rescale so the *repository-to-repository* mean delay hits a target.

        This is the x-axis of the paper's communication-delay sweeps
        (Figures 5 and 7b): the average end-to-end delay of one
        dissemination hop.
        """
        current = self.mean_repo_delay_ms()
        if target_ms <= 0.0 or current <= 0.0:
            return self._uniformly_scaled(0.0)
        raw = self.raw or self
        return self._uniformly_scaled(target_ms / raw.mean_repo_delay_ms())

    def _uniformly_scaled(self, factor: float) -> "NetworkModel":
        # Scale from the raw arrays, never from already-scaled ones:
        # float multiplication does not compose exactly, so chained
        # rescales would otherwise drift in the last bits and make a
        # recycled sweep setup differ from a freshly built one.  Scaling
        # moves no path, so the link set and hop table are the raw
        # network's own (read-only) arrays.
        raw = self.raw or self
        topo = Topology(
            n_repositories=raw.topology.n_repositories,
            n_routers=raw.topology.n_routers,
            edges=raw.topology.edges,
            delays_ms=raw.topology.delays_ms * factor,
        )
        routing = RoutingTables(
            dist_ms=raw.routing.dist_ms * factor, hops=raw.routing.hops
        )
        return NetworkModel(topology=topo, routing=routing, raw=raw, scale=factor)


def build_network(
    n_repositories: int,
    n_routers: int,
    rng: np.random.Generator,
    delay_model: ParetoDelayModel | None = None,
    avg_degree: float = 3.0,
) -> NetworkModel:
    """Generate a topology and its routing tables in one call.

    Args:
        n_repositories: Repository count (paper base case: 100).
        n_routers: Router count (paper base case: 600).
        rng: Random stream for structure and link delays.
        delay_model: Link-delay distribution; defaults to the paper's
            Pareto(mean 15 ms, min 2 ms).
        avg_degree: Target average node degree of the physical mesh.

    Raises:
        TopologyError: if generation fails or the graph is disconnected.
    """
    if delay_model is None:
        delay_model = ParetoDelayModel()
    topology = generate_topology(
        n_repositories=n_repositories,
        n_routers=n_routers,
        rng=rng,
        delay_model=delay_model,
        avg_degree=avg_degree,
    )
    routing = build_routing(topology)
    return NetworkModel(topology=topology, routing=routing)
