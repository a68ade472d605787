"""Turn a :class:`~repro.engine.config.SimulationConfig` into a running
live network and collect a simulator-shaped result.

:func:`build_live_network` reuses the engine's builder verbatim -- the
same seeded topology, workload traces, interest profiles and LeLA-built
``d3g`` a simulation run would use -- and wires them into sans-io nodes
(:mod:`repro.live.nodes`).  :func:`run_live` drives the network with a
transport (:mod:`repro.live.transport`) and scores *observed* fidelity
from the delivery logs with the same
:func:`~repro.core.fidelity.loss_of_fidelity` computation the simulator
uses, returning a :class:`LiveRunResult` shaped like
:class:`~repro.engine.results.SimulationResult` so experiments can
compare the two planes field by field (the ``live_crosscheck``
experiment does exactly that).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.clients import ClientPopulation
from repro.core.dissemination.filtering import EdgeFilter, SourceTagger
from repro.core.fidelity import loss_of_fidelity, scoring_windows, unzip_log
from repro.core.metrics import CostCounters
from repro.core.tree import TreeStats
from repro.engine.builder import SimulationSetup, build_setup
from repro.engine.config import SimulationConfig
from repro.engine.reconfig import ReconfigurationCore
from repro.errors import ConfigurationError
from repro.live.nodes import ClientNode, RepositoryNode, SourceNode
from repro.live.transport import (
    InProcessTransport,
    TransportStats,
    make_transport,
)

__all__ = [
    "LiveNetwork",
    "LiveRunResult",
    "build_live_network",
    "run_live",
]


@dataclass
class LiveRunResult:
    """Everything one live run produced, simulator-shaped.

    The first block of attributes mirrors
    :class:`~repro.engine.results.SimulationResult` field for field so
    sim and live runs can be compared directly; the second block adds
    the wire-level accounting only a real network has.

    Attributes:
        loss_of_fidelity: System-wide mean *observed* loss of fidelity,
            percent (0 is perfect).
        per_repository_loss: Mean observed loss per repository.
        counters: Repository-plane message/check accounting (client
            traffic is tallied separately in ``extras``).
        tree_stats: Shape of the ``d3g`` the network ran.
        effective_degree: Degree of cooperation enforced by the build.
        avg_comm_delay_ms: Mean node-to-node delay of the topology.
        sim_span_s: Observation-window length in simulated seconds.
        transport: Transport name (``inprocess`` or ``tcp``).
        wall_seconds: Wall-clock duration of the run.
        sent / delivered / dropped: Wire-level message conservation
            (``sent == delivered + dropped`` always holds at rest).
        extras: Free-form additions (client-plane observations).
    """

    loss_of_fidelity: float
    per_repository_loss: dict[int, float]
    counters: CostCounters
    tree_stats: TreeStats
    effective_degree: int
    avg_comm_delay_ms: float
    sim_span_s: float
    transport: str
    wall_seconds: float
    sent: int
    delivered: int
    dropped: int
    extras: dict = field(default_factory=dict)

    @property
    def fidelity(self) -> float:
        """System observed fidelity in percent (100 = perfect)."""
        return 100.0 - self.loss_of_fidelity

    @property
    def messages(self) -> int:
        """Repository-plane update messages sent (sim-comparable)."""
        return self.counters.messages

    @property
    def conserved(self) -> bool:
        """Message conservation: every send was delivered or dropped."""
        return self.sent == self.delivered + self.dropped

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"loss={self.loss_of_fidelity:.2f}% "
            f"messages={self.counters.messages} "
            f"delivered={self.delivered} dropped={self.dropped} "
            f"transport={self.transport} wall={self.wall_seconds:.2f}s"
        )


class LiveNetwork:
    """A built-but-not-yet-running live network.

    Holds the engine setup, the sans-io nodes, and the lookup tables a
    transport needs (node handlers, the source schedule and the control
    timeline).

    It is also the live plane's
    :class:`~repro.engine.reconfig.EdgeStore`: :attr:`reconfig` -- the
    same :class:`~repro.engine.reconfig.ReconfigurationCore` both
    simulation kernels run -- decides every churn rebuild, failover,
    resync and adaptive rewire, and :meth:`wire` / :meth:`unwire` and
    friends only patch the nodes' edge lists, filters and logs.  The
    runtime every transport drives (:mod:`repro.live.wire`) applies the
    core's timeline and judges loss, failures and departures by the
    engine's rule, so an in-process run stays bit-identical to the
    simulation.
    """

    def __init__(
        self,
        setup: SimulationSetup,
        counters: CostCounters,
        source_node: SourceNode,
        repositories: dict[int, RepositoryNode],
        clients: dict[int, ClientNode],
    ) -> None:
        self.setup = setup
        self.counters = counters
        self.source_node = source_node
        self.repositories = repositories
        #: transport node id -> client node.
        self.clients = clients
        #: Control state and rules (churn, failover, resync, rewires).
        self.reconfig = ReconfigurationCore.for_setup(setup, self, counters)
        #: Out-of-band trace observer (see :meth:`attach_observer`);
        #: the runtime consults it at its drop site.
        self.observer = None

    def attach_observer(self, observer) -> None:
        """Attach a trace observer to the network and every node.

        Out-of-band like the engine's ``observer=`` keyword: the
        observer only records decisions, so an observed run stays
        bit-identical to an unobserved one.  Call before handing the
        network to ``run_live(..., network=network)``.
        """
        self.observer = observer
        self.reconfig.observer = observer
        self.source_node.observer = observer
        for repo in self.repositories.values():
            repo.observer = observer

    def node(self, node_id: int):
        """The message handler for one destination node id."""
        repo = self.repositories.get(node_id)
        if repo is not None:
            return repo
        return self.clients[node_id]

    def source_schedule(self, duration: float | None = None) -> list[tuple[float, int, float]]:
        """The workload replay: (time, item, value), time-ordered.

        The sort is stable over the per-item generation order, so
        same-instant updates replay in exactly the order the simulation
        kernel's FIFO tie-break executes them.

        Args:
            duration: When set, truncate the replay to the first
                ``duration`` simulated seconds of each trace.
        """
        schedule: list[tuple[float, int, float]] = []
        for item_id, trace in self.setup.traces.items():
            changes = trace.changes()
            t_end = (
                float(trace.times[0]) + duration if duration is not None else None
            )
            # Index 0 is the priming value everyone already holds.
            for t, v in zip(changes.times[1:], changes.values[1:]):
                if t_end is not None and float(t) > t_end:
                    break
                schedule.append((float(t), item_id, float(v)))
        schedule.sort(key=lambda entry: entry[0])
        return schedule

    def span(self, duration: float | None = None) -> float:
        """The scoring horizon: the longest trace's span, truncated to
        ``duration`` when the replay is."""
        span = max((trace.span for trace in self.setup.traces.values()), default=0.0)
        return span if duration is None else min(span, duration)

    # -- edge-store port (driven by repro.engine.reconfig) --

    def _sender(self, node: int):
        if node == self.source_node.node:
            return self.source_node
        return self.repositories[node]

    def unwire(self, parent: int, child: int, item_id: int, c: float) -> None:
        sender = self._sender(parent)
        edges = sender.edges.get(item_id)
        if edges is not None:
            # Client edges stay put: attached clients ride out a rewire
            # on their repository, like the engine's modeled clients.
            edges[:] = [e for e in edges if e.is_client or e.child != child]
            if not edges:
                del sender.edges[item_id]
        if self.source_node.tagger is not None:
            self.source_node.tagger.remove_tolerance(item_id, c)

    def wire(
        self, parent: int, child: int, item_id: int, c: float, initial: float
    ) -> None:
        self.repositories[child].receive_c[item_id] = c
        if self.source_node.tagger is not None:
            self.source_node.tagger.add_tolerance(item_id, c, initial)
        self._sender(parent).add_edge(
            item_id,
            child,
            c,
            EdgeFilter(self.setup.config.policy, c, initial),
            self.setup.network.delay_s(parent, child),
        )

    def unsubscribe(self, node: int, item_id: int) -> None:
        self.repositories[node].receive_c.pop(item_id, None)

    def log(self, node: int, item_id: int, create: bool = False):
        logs = self.repositories[node].deliveries
        return logs.setdefault(item_id, []) if create else logs.get(item_id)

    def source_value(self, item_id: int) -> float:
        return self.source_node.values.get(
            item_id, self.setup.traces[item_id].initial_value
        )

    def message_counts(self) -> dict[int, int]:
        return dict(self.counters.per_node_messages)


def _client_node_base(setup: SimulationSetup) -> int:
    """First transport node id free for clients (above the topology)."""
    return setup.network.topology.n_nodes


def build_live_network(
    config: SimulationConfig,
    clients: ClientPopulation | None = None,
    setup: SimulationSetup | None = None,
) -> LiveNetwork:
    """Assemble the live network for an unchanged simulation config.

    The build reuses :func:`~repro.engine.builder.build_setup` -- same
    topology, traces, profiles and LeLA ``d3g`` as a simulation of the
    same config -- then instantiates one sans-io node per repository
    (late joiners included) with a shared
    :class:`~repro.core.dissemination.filtering.EdgeFilter` per service
    edge of the initial graph (and the
    :class:`~repro.core.dissemination.filtering.SourceTagger` when the
    centralised policy runs).

    Args:
        config: The run's full parameterisation.  Churn, failures,
            adaptive rewiring and seeded message loss all run: the
            runtime (:mod:`repro.live.wire`) executes the network's
            :class:`~repro.engine.reconfig.ReconfigurationCore` timeline
            and judges loss, crashes and departures by the engine's
            rule.
        clients: Optional end-client population to attach; each client
            becomes a dependent of its repository, filtered at its own
            tolerance, and is served whenever its repository receives
            the item.
        setup: Optional prebuilt setup for exactly this config (skips
            rebuilding the topology/traces/``d3g``; the loadgen path
            shares one build across population generation and the run).

    Raises:
        ConfigurationError: on clients attached to unknown repositories
            or wanting unknown items.
    """
    if setup is None:
        setup = build_setup(config)
    counters = CostCounters()
    comp_delay_s = config.comp_delay_ms / 1000.0
    graph = setup.graph
    source = setup.source

    tagger: SourceTagger | None = None
    if config.policy == "centralized":
        tagger = SourceTagger()

    source_node = SourceNode(source, comp_delay_s, counters, tagger=tagger)
    # A node per repository: a late joiner receives nothing until the
    # core wires it in.
    repositories: dict[int, RepositoryNode] = {
        node: RepositoryNode(
            node,
            comp_delay_s,
            counters,
            receive_c=graph.nodes[node].receive_c if node in graph.nodes else {},
        )
        for node in setup.profiles
    }

    network = LiveNetwork(setup, counters, source_node, repositories, {})
    # Wire the d3g exactly as the engine's _prepare does: items in trace
    # order, nodes in graph order, children in child-table order.
    for item_id in setup.traces:
        initial = setup.traces[item_id].initial_value
        for node in graph.nodes:
            for child, c_serve in graph.children_for_item(node, item_id):
                network.wire(node, child, item_id, c_serve, initial)
        for node, repo in repositories.items():
            if item_id in repo.receive_c:
                repo.deliveries[item_id] = [(0.0, initial)]

    client_nodes = network.clients
    if clients is not None and len(clients):
        base = _client_node_base(setup)
        for offset, client in enumerate(clients.clients):
            repo = repositories.get(client.repository)
            if repo is None:
                raise ConfigurationError(
                    f"client {client.client_id} attaches to unknown "
                    f"repository {client.repository}"
                )
            node_id = base + offset
            client_node = ClientNode(
                node=node_id,
                client_id=client.client_id,
                repository=client.repository,
                requirements=dict(client.requirements),
            )
            for item_id, tolerance in sorted(client.requirements.items()):
                trace = setup.traces.get(item_id)
                if trace is None:
                    raise ConfigurationError(
                        f"client {client.client_id} wants unknown item {item_id}"
                    )
                client_node.deliveries[item_id] = [(0.0, trace.initial_value)]
                # Attached whether or not the repository carries the item:
                # a client is served only while it does (until then it
                # stays on the priming value, and the requirement-met
                # report flags it).
                repo.add_edge(
                    item_id,
                    node_id,
                    tolerance,
                    # Client service is repository-local filtering: the
                    # Eq. (3) + Eq. (7) test at the client's tolerance,
                    # whatever policy runs in the repository plane
                    # (clients are invisible to the source's tagging).
                    EdgeFilter("distributed", tolerance, trace.initial_value),
                    link_delay_s=0.0,
                    is_client=True,
                )
            client_nodes[node_id] = client_node
    return network


def _score_clients(
    network: LiveNetwork,
    duration: float | None,
    only: set[int] | None = None,
) -> dict[int, dict[int, float]]:
    """Observed per-client loss at each client's own tolerance.

    ``only`` restricts scoring to a subset of client *node ids* (fleet
    workers score the clients attached to their shard's repositories).
    """
    observed: dict[int, dict[int, float]] = {}
    windows = scoring_windows(network.setup.traces, duration)
    for client_node in network.clients.values():
        if only is not None and client_node.node not in only:
            continue
        per_item: dict[int, float] = {}
        for item_id, tolerance in sorted(client_node.requirements.items()):
            trace = network.setup.traces[item_id]
            t0, t1 = windows[item_id]
            per_item[item_id] = loss_of_fidelity(
                trace.times,
                trace.values,
                *unzip_log(client_node.deliveries[item_id]),
                tolerance,
                t_start=t0,
                t_end=t1,
            )
        observed[client_node.client_id] = per_item
    return observed


def run_live(
    config: SimulationConfig,
    transport: str = "inprocess",
    *,
    duration: float | None = None,
    time_scale: float = 60.0,
    jitter_ms: float = 0.0,
    heartbeat_interval_s: float = 0.5,
    clients: ClientPopulation | None = None,
    network: LiveNetwork | None = None,
) -> LiveRunResult:
    """Build, run and score one live network end to end.

    Churn and failure schedules (``config.churn``, ``config.failures``)
    and seeded message loss (``config.message_loss_probability``) run
    for real: both transports drop by schedule and by the seeded
    Bernoulli stream -- one rule, the engine's, applied by the runtime
    they share -- the TCP transport additionally heartbeats its
    connections and reconnects severed ones with exponential backoff,
    and fidelity is scored over the availability segments exactly like
    the engine.  The TCP wall
    budgets (quiescence wait, reconnect policy, queue watermarks) are
    constants of :mod:`repro.live.wire`, not options.

    Args:
        config: The run's full parameterisation (identical to what a
            simulation takes).
        transport: ``inprocess`` (deterministic virtual time) or
            ``tcp`` (localhost sockets).
        duration: Optional truncation of the replay to the first
            ``duration`` simulated seconds (fidelity is scored over the
            truncated window).
        time_scale: Simulated seconds per wall second (TCP only).
        jitter_ms: Seeded per-delivery jitter bound (in-process only).
        heartbeat_interval_s: Wall seconds between TCP liveness probes
            per connection (failure runs only; 0 disables).
        clients: Optional end-client population to attach (ignored when
            ``network`` is given).
        network: Optional prebuilt network for exactly this config.
    """
    if duration is not None and duration <= 0:
        raise ConfigurationError(f"duration must be positive, got {duration!r}")
    if config.adaptive is not None and transport != InProcessTransport.name:
        raise ConfigurationError(
            "adaptive re-optimization needs virtual-time counter "
            "snapshots; run it on the inprocess transport"
        )
    if network is None:
        network = build_live_network(config, clients=clients)
    driver = make_transport(
        transport,
        jitter_ms=jitter_ms,
        time_scale=time_scale,
        heartbeat_interval_s=heartbeat_interval_s,
    )
    start = time.perf_counter()
    stats: TransportStats = driver.run(network, duration=duration)
    wall = time.perf_counter() - start

    core = network.reconfig
    accumulator, per_pair = core.score(network.setup.traces, duration)
    extras: dict = {
        "per_pair_loss": per_pair,
        "workload": config.workload.name,
        "policy": config.policy,
    }
    if network.clients:
        extras["client_loss"] = _score_clients(network, duration)
        extras["client_messages"] = sum(
            node.client_messages
            for node in (network.source_node, *network.repositories.values())
        )
    extras.update(core.extras())
    if core.failures is not None:
        if stats.heartbeats:
            extras["heartbeats"] = stats.heartbeats
        if stats.reconnects:
            extras["reconnects"] = stats.reconnects
    return LiveRunResult(
        loss_of_fidelity=accumulator.system_loss(),
        per_repository_loss=accumulator.per_repository(),
        counters=network.counters,
        # Adaptive runs report the graph they *ended* on, like the engine.
        tree_stats=core.graph.stats(),
        effective_degree=network.setup.effective_degree,
        avg_comm_delay_ms=network.setup.avg_comm_delay_ms,
        sim_span_s=network.span(duration),
        transport=driver.name,
        wall_seconds=wall,
        sent=stats.sent,
        delivered=stats.delivered,
        dropped=stats.dropped,
        extras=extras,
    )
