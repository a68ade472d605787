"""Client load generator for the live repository network.

Attaches a population of synthetic end clients to a live network run
and reports what each client actually observed: its per-item measured
loss of fidelity, the coherency its repository serves the item at, and
whether its requirement was met
(:func:`~repro.core.clients.requirement_report`).

Clients draw their per-item tolerances from the config's stringent/lax
mix over the items their repository stores, so a realistic share of
requirements is *stricter* than what the repository receives -- those
show up honestly as unmet, exactly the report a deployment needs before
admitting a client.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.clients import Client, ClientPopulation, requirement_report
from repro.core.items import CoherencyMix
from repro.engine.builder import SimulationSetup, build_setup
from repro.engine.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.live.harness import LiveRunResult, build_live_network, run_live
from repro.sim.rng import RandomStreams

__all__ = [
    "ClientReport",
    "LoadgenReport",
    "generate_clients",
    "client_reports",
    "run_loadgen",
]


@dataclass
class ClientReport:
    """What one synthetic client experienced.

    Attributes:
        client_id: The client.
        repository: Repository it read from.
        requirements: ``item_id -> c`` it asked for.
        served_c: ``item_id -> c`` its repository receives the item at
            (absent when the repository does not carry the item).
        observed_loss: ``item_id -> %`` measured loss at the client's
            own tolerance.
        met: ``item_id -> bool`` from the most-stringent-requirement
            report.
    """

    client_id: int
    repository: int
    requirements: dict[int, float]
    served_c: dict[int, float]
    observed_loss: dict[int, float]
    met: dict[int, bool]


@dataclass
class LoadgenReport:
    """Outcome of one load-generation run.

    Attributes:
        result: The underlying live run (network-plane view).
        clients: Per-client observations.
        n_requirements: Total (client, item) requirements attached.
        n_met: Requirements the deployment meets.
    """

    result: LiveRunResult
    clients: list[ClientReport] = field(default_factory=list)
    n_requirements: int = 0
    n_met: int = 0

    @property
    def met_fraction(self) -> float:
        """Share of client requirements met (1.0 when none attached)."""
        if self.n_requirements == 0:
            return 1.0
        return self.n_met / self.n_requirements


def generate_clients(
    config: SimulationConfig,
    n_clients: int,
    seed: int | None = None,
    setup: SimulationSetup | None = None,
) -> ClientPopulation:
    """A seeded synthetic client population for one config.

    Clients round-robin over the repositories (sorted), want each of
    their repository's own items with probability one half (at least
    one), and draw tolerances from the config's stringent/lax mix --
    independent of what the repository negotiated, so requirements can
    be stricter than the service.  Pass a prebuilt ``setup`` to avoid
    rebuilding the topology just to read the interest profiles.
    """
    if n_clients < 1:
        raise ConfigurationError(f"n_clients must be >= 1, got {n_clients!r}")
    if setup is None:
        setup = build_setup(config)
    rng = RandomStreams(seed if seed is not None else config.seed).stream(
        "live-loadgen"
    )
    mix = CoherencyMix(t_percent=config.t_percent)
    repositories = sorted(setup.profiles)
    clients: list[Client] = []
    for client_id in range(n_clients):
        repo = repositories[client_id % len(repositories)]
        items = sorted(setup.profiles[repo].requirements)
        wanted = [i for i in items if rng.random() < 0.5]
        if not wanted:
            wanted = [items[int(rng.integers(len(items)))]]
        tolerances = mix.draw(len(wanted), rng)
        clients.append(
            Client(
                client_id=client_id,
                repository=repo,
                requirements={
                    int(i): float(c) for i, c in zip(wanted, tolerances)
                },
            )
        )
    return ClientPopulation(clients=clients)


def run_loadgen(
    config: SimulationConfig,
    n_clients: int,
    transport: str = "inprocess",
    *,
    duration: float | None = None,
    time_scale: float = 60.0,
    seed: int | None = None,
    **transport_knobs,
) -> LoadgenReport:
    """Run a live network with ``n_clients`` attached and report per-client
    observed fidelity plus the requirement-met table.

    The expensive setup (topology, traces, LeLA ``d3g``) is built once
    and shared by population generation, the network build and the
    served-coherency table.  Extra keyword arguments (``jitter_ms``,
    ``heartbeat_interval_s``) pass through to :func:`~repro.live.
    harness.run_live`; failure schedules and message loss configured on
    ``config`` are honoured exactly as in a client-free run.
    """
    setup = build_setup(config)
    population = generate_clients(config, n_clients, seed=seed, setup=setup)
    network = build_live_network(config, clients=population, setup=setup)
    result = run_live(
        config,
        transport,
        duration=duration,
        time_scale=time_scale,
        network=network,
        **transport_knobs,
    )
    return client_reports(result, population, setup)


def client_reports(
    result: LiveRunResult, population: ClientPopulation, setup: SimulationSetup
) -> LoadgenReport:
    """Fold a finished run with ``population`` attached into the
    per-client report (shared with the fleet's sharded loadgen)."""
    # The coherency each repository actually receives each item at is
    # what it can serve clients with.
    served: dict[tuple[int, int], float] = {}
    for node, state in setup.graph.nodes.items():
        if node == setup.graph.source:
            continue
        for item_id, c in state.receive_c.items():
            served[(node, item_id)] = c
    met_by_client = requirement_report(population, served)
    observed = result.extras.get("client_loss", {})

    report = LoadgenReport(result=result)
    for client in population.clients:
        met = met_by_client[client.client_id]
        report.clients.append(
            ClientReport(
                client_id=client.client_id,
                repository=client.repository,
                requirements=dict(client.requirements),
                served_c={
                    item_id: served[(client.repository, item_id)]
                    for item_id in client.requirements
                    if (client.repository, item_id) in served
                },
                observed_loss=dict(observed.get(client.client_id, {})),
                met=met,
            )
        )
        report.n_requirements += len(met)
        report.n_met += sum(met.values())
    return report
