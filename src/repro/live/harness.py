"""Turn a :class:`~repro.engine.config.SimulationConfig` into a running
live network and collect the engine's result type.

:func:`build_live_network` reuses the engine's builder verbatim -- the
same seeded topology, workload traces, interest profiles and LeLA-built
``d3g`` a simulation run would use -- and wires them into sans-io nodes
(:mod:`repro.live.nodes`).  :func:`run_live` drives the network on the
wire its transport name picks (:mod:`repro.live.transport`) and scores
*observed* fidelity from the delivery logs with the engine's own
epilogue (:meth:`~repro.engine.results.SimulationResult.scored`),
returning a :class:`LiveRunResult`: a
:class:`~repro.engine.results.SimulationResult` plus the wire's
tallies, so experiments compare the two planes field by field (the
``live_crosscheck`` table does exactly that, with ``==``).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from repro.core.dissemination.filtering import EdgeFilter, StaircaseTagger
from repro.core.metrics import CostCounters
from repro.engine.builder import SimulationSetup, build_setup
from repro.engine.config import SimulationConfig
from repro.engine.reconfig import ReconfigurationCore
from repro.engine.results import SimulationResult
from repro.errors import ConfigurationError
from repro.live.nodes import RepositoryNode, SourceNode
from repro.live.transport import TcpWire, VirtualWire
from repro.traces.schedule import UpdateSchedule

__all__ = [
    "LiveNetwork",
    "LiveRunResult",
    "build_live_network",
    "check_duration",
    "check_pacing",
    "check_push_only",
    "run_live",
]


@dataclass(kw_only=True)
class LiveRunResult(SimulationResult):
    """Everything one live run produced: an engine result, observed.

    Every :class:`~repro.engine.results.SimulationResult` field means
    what it means on the engine -- ``loss_of_fidelity`` is the loss
    *observed* in the delivery logs, ``events_processed`` the source
    updates, control entries and deliveries the due queue released --
    so a sim and a live run compare field by field.  What only a wire
    has is added here.

    Attributes:
        transport: Transport name (``inprocess``, ``tcp`` or ``fleet``).
        wall_seconds: Wall-clock duration of the run.
        sent / delivered / dropped: Wire-level message conservation
            (``sent == delivered + dropped`` always holds at rest).
    """

    transport: str
    wall_seconds: float
    sent: int
    delivered: int
    dropped: int

    @property
    def conserved(self) -> bool:
        """Message conservation: every send was delivered or dropped."""
        return self.sent == self.delivered + self.dropped


class LiveNetwork:
    """A built-but-not-yet-running live network.

    Holds the engine setup, the sans-io nodes, and the lookup tables a
    runtime needs (node handlers, the source schedule and the control
    timeline).

    It is also the live plane's
    :class:`~repro.engine.reconfig.EdgeStore`: :attr:`reconfig` -- the
    same :class:`~repro.engine.reconfig.ReconfigurationCore` both
    simulation kernels run -- decides every churn rebuild, failover,
    resync and adaptive rewire, and :meth:`wire` / :meth:`unwire` and
    friends only patch the nodes' edge groups, the source's tagger and
    the logs.  The runtime every live plane drives
    (:mod:`repro.live.wire`) applies the core's timeline and judges
    loss, failures and departures by the engine's rule, so an
    in-process run stays bit-identical to the simulation.
    """

    def __init__(
        self,
        setup: SimulationSetup,
        counters: CostCounters,
        source_node: SourceNode,
        repositories: dict[int, RepositoryNode],
    ) -> None:
        self.setup = setup
        self.counters = counters
        self.source_node = source_node
        self.repositories = repositories
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

    def source_schedule(self, duration: float | None = None) -> list[tuple[float, int, float]]:
        """The workload replay: (time, item, value), time-ordered.

        The sort is stable over the per-item generation order, so
        same-instant updates replay in exactly the order the simulation
        kernel's FIFO tie-break executes them.

        It is the builder's :class:`~repro.traces.schedule.UpdateSchedule`
        -- the very timeline both simulation kernels consume -- as tuples.

        Args:
            duration: When set, truncate the replay to the first
                ``duration`` simulated seconds of each trace.
        """
        timeline = self._timeline()
        rows = zip(
            timeline.times.tolist(), timeline.item_ids.tolist(), timeline.values.tolist()
        )
        if duration is None:
            return list(rows)
        t_end = {
            item_id: float(trace.times[0]) + duration
            for item_id, trace in self.setup.traces.items()
        }
        return [row for row in rows if row[0] <= t_end[row[1]]]

    def span(self, duration: float | None = None) -> float:
        """The scoring horizon: the longest trace's span, truncated to
        ``duration`` when the replay is."""
        span = self._timeline().span
        return span if duration is None else min(span, duration)

    def _timeline(self) -> UpdateSchedule:
        # Recomputed only for hand-built setups, as the kernels do.
        timeline = self.setup.update_schedule
        if timeline is None:
            timeline = UpdateSchedule.from_traces(self.setup.traces)
        return timeline

    # -- edge-store port (driven by repro.engine.reconfig) --

    def _sender(self, node: int):
        if node == self.source_node.node:
            return self.source_node
        return self.repositories[node]

    def unwire(self, parent: int, child: int, item_id: int, c: float) -> None:
        group = self._sender(parent).edges.get(item_id)
        if group is not None:
            group.unwire(child)
        if self.source_node.tagger is not None:
            self.source_node.tagger.remove_tolerance(item_id, c)

    def wire(
        self, parent: int, child: int, item_id: int, c: float, initial: float
    ) -> None:
        self.repositories[child].receive_c[item_id] = c
        if self.source_node.tagger is not None:
            self.source_node.tagger.add_tolerance(item_id, c, initial)
        edge = EdgeFilter(self.setup.config.policy, c, initial)
        delay_s = self.setup.network.delay_s(parent, child)
        self._sender(parent).add_edge(item_id, child, c, edge, delay_s)

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


def check_duration(duration: float | None) -> None:
    """Refuse a replay truncation that is not a positive number.

    Raises:
        ConfigurationError: when ``duration`` is zero, negative or NaN.
    """
    if duration is not None and not duration > 0:
        raise ConfigurationError(f"duration must be positive, got {duration!r}")


def check_push_only(config: SimulationConfig) -> None:
    """Refuse a pull config: the live planes' nodes push, and polls run
    on the engine only."""
    if config.pull is not None:
        raise ConfigurationError(
            "the live planes run push only; run a pull config on the engine"
        )


def check_pacing(
    time_scale: float, heartbeat_interval_s: float, jitter_ms: float = 0.0
) -> None:
    """Refuse a time scale that is not positive and a negative
    heartbeat or jitter (NaN fails each test) with ConfigurationError."""
    if not time_scale > 0:
        raise ConfigurationError(f"time_scale must be positive, got {time_scale!r}")
    if not heartbeat_interval_s >= 0:
        raise ConfigurationError(
            f"heartbeat_interval_s must be >= 0, got {heartbeat_interval_s!r}"
        )
    if not jitter_ms >= 0:
        raise ConfigurationError(f"jitter_ms must be >= 0, got {jitter_ms!r}")


def build_live_network(
    config: SimulationConfig, setup: SimulationSetup | None = None
) -> LiveNetwork:
    """Assemble the live network for an unchanged simulation config.

    The build reuses :func:`~repro.engine.builder.build_setup` -- same
    topology, traces, profiles and LeLA ``d3g`` as a simulation of the
    same config -- then instantiates one sans-io node per repository
    (late joiners included), gives the source the engine's
    :class:`~repro.core.dissemination.filtering.StaircaseTagger` when
    the centralised policy runs, and has the network's core wire the
    initial graph through :meth:`LiveNetwork.wire`
    (:meth:`~repro.engine.reconfig.ReconfigurationCore.wire_initial`,
    the engine's own first wiring, in the same order).  Modeled clients
    (``clients_per_repository``) get nothing here: :func:`run_live`
    has the network's core serve them from the delivery logs, as the
    engine does.

    Args:
        config: The run's full parameterisation.  Churn, failures,
            adaptive rewiring and seeded message loss all run: the
            runtime (:mod:`repro.live.wire`) executes the network's
            :class:`~repro.engine.reconfig.ReconfigurationCore` timeline
            and judges loss, crashes and departures by the engine's
            rule.
        setup: Optional prebuilt setup for exactly this config (skips
            rebuilding the topology/traces/``d3g``; a fleet worker
            shares one build between its network and its shard plan).
    """
    if setup is None:
        setup = build_setup(config)
    counters = CostCounters()
    comp_delay_s = config.comp_delay_ms / 1000.0
    tagger = StaircaseTagger() if config.policy == "centralized" else None
    source_node = SourceNode(setup.source, comp_delay_s, counters, tagger=tagger)
    # A node per repository, receiving nothing until the core wires it
    # in (a late joiner stays so until its join event).
    repositories = {
        node: RepositoryNode(node, comp_delay_s, counters, receive_c={})
        for node in setup.profiles
    }
    network = LiveNetwork(setup, counters, source_node, repositories)
    network.reconfig.wire_initial(setup.traces)
    return network


def run_live(
    config: SimulationConfig,
    transport: str = "inprocess",
    *,
    duration: float | None = None,
    time_scale: float = 60.0,
    jitter_ms: float = 0.0,
    heartbeat_interval_s: float = 0.5,
    network: LiveNetwork | None = None,
) -> LiveRunResult:
    """Build, run and score one live network end to end.

    Churn and failure schedules (``config.churn``, ``config.failures``),
    adaptive rewiring (``config.adaptive``) and seeded message loss
    (``config.message_loss_probability``) run for real on both
    transports: they drop by schedule and by each link's seeded loss
    stream -- one rule, the engine's, applied by the runtime they share
    -- the TCP transport additionally heartbeats its connections and
    reconnects severed ones with exponential backoff, and fidelity is
    scored over the availability segments exactly like the engine.  The
    TCP wall budgets (quiescence wait, reconnect policy, queue
    watermarks) are constants of :mod:`repro.live.wire`, not options.

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
        network: Optional prebuilt network for exactly this config.

    Raises:
        ConfigurationError: before anything runs, on an unknown transport,
            a bad duration or pacing, or a pull config (polls run on the
            engine only).
    """
    check_push_only(config)
    check_duration(duration)
    check_pacing(time_scale, heartbeat_interval_s, jitter_ms)
    if transport not in ("inprocess", "tcp"):
        raise ConfigurationError(
            f"unknown live transport {transport!r}; choose from ['inprocess', 'tcp']"
        )
    if network is None:
        network = build_live_network(config)
    start = time.perf_counter()
    if transport == "inprocess":
        wire = VirtualWire(network, jitter_ms)
        stats = wire.run(duration)
    else:
        wire = TcpWire(network, time_scale, heartbeat_interval_s)
        stats = asyncio.run(wire.run(duration))
    wall = time.perf_counter() - start

    core, setup = network.reconfig, network.setup
    core.serve_clients(setup.client_tolerances, setup.traces)
    result = LiveRunResult.scored(
        setup, core, network.span(duration), wire.due.events_processed, duration,
        transport=transport,
        wall_seconds=wall,
        sent=stats.sent,
        delivered=stats.delivered,
        dropped=stats.dropped,
    )
    if core.failures is not None:
        if stats.heartbeats:
            result.extras["heartbeats"] = stats.heartbeats
        if stats.reconnects:
            result.extras["reconnects"] = stats.reconnects
    return result
