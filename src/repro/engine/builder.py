"""Builds a ready-to-run simulation from a config.

Assembly order (each step seeded by its own named random stream, so a
parameter sweep perturbs only what it sweeps):

1. physical network (topology + shortest-path routing),
2. per-item update traces, generated by the config's workload
   (:mod:`repro.workloads`; Table 1-calibrated by default),
3. interest profiles (50% subscription, T% stringent mix),
4. degree of cooperation (the offered value, optionally clamped by
   Eq. 2's controlled cooperation), and
5. the ``d3g`` via LeLA -- over the subscriptions that push: with a
   :class:`~repro.engine.config.PullConfig`, the rest poll.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cooperation import coop_degree
from repro.core.dissemination.filtering import validate_tolerance
from repro.core.interests import InterestProfile, generate_interests
from repro.core.items import CoherencyMix, DataItem
from repro.core.tree import DisseminationGraph
from repro.engine.config import SimulationConfig
from repro.engine.reconfig import LelaInputs
from repro.network.delays import ParetoDelayModel
from repro.network.model import NetworkModel, build_network
from repro.sim.rng import RandomStreams
from repro.traces.model import Trace
from repro.traces.schedule import UpdateSchedule

__all__ = ["SimulationSetup", "build_setup"]


@dataclass
class SimulationSetup:
    """Everything :func:`~repro.engine.simulation.make_simulation`
    needs, plus the derived quantities experiments report."""

    config: SimulationConfig
    network: NetworkModel
    items: list[DataItem]
    traces: dict[int, Trace]
    profiles: dict[int, InterestProfile]
    graph: DisseminationGraph
    effective_degree: int
    avg_comm_delay_ms: float
    #: The run's full source-update timeline, precomputed as arrays
    #: (both engine kernels consume it; ``None`` only in hand-built
    #: setups, which fall back to computing it at run start).
    update_schedule: UpdateSchedule | None = None
    #: Per (repository, item): the attached modeled clients' coherency
    #: tolerances as a read-only float64 array in ascending order.
    #: ``None`` when ``clients_per_repository == 0``.  Each run keeps
    #: its own last-served state; a shared setup stays read-only.
    client_tolerances: dict[tuple[int, int], np.ndarray] | None = field(
        default=None, repr=False
    )
    #: The ``(repository, item)`` pairs that poll the source (only with
    #: ``config.pull``), in profile order: the pull side of the split,
    #: less the pairs the ``d3g`` delivers anyway.
    polls: tuple[tuple[int, int], ...] = ()

    @property
    def source(self) -> int:
        return self.network.source

    @property
    def repositories(self) -> list[int]:
        return [int(r) for r in self.network.repository_ids]


def _build_network(config: SimulationConfig, streams: RandomStreams) -> NetworkModel:
    if config.link_delay_mean_ms <= 0:
        # Idealised zero-delay network: build with nominal delays for a
        # realistic topology, then collapse them.
        delay_model = ParetoDelayModel()
        network = build_network(
            config.n_repositories,
            config.n_routers,
            streams.stream("topology"),
            delay_model=delay_model,
            avg_degree=config.avg_degree,
        )
        return network.scaled_delays(0.0)
    delay_model = ParetoDelayModel(
        mean_ms=config.link_delay_mean_ms,
        min_ms=min(config.link_delay_min_ms, config.link_delay_mean_ms / 2.0),
    )
    return build_network(
        config.n_repositories,
        config.n_routers,
        streams.stream("topology"),
        delay_model=delay_model,
        avg_degree=config.avg_degree,
    )


_NETWORK_FIELDS = (
    "seed",
    "n_repositories",
    "n_routers",
    "avg_degree",
    "link_delay_mean_ms",
    "link_delay_min_ms",
    "comm_target_ms",
)
_TRACE_FIELDS = ("seed", "n_items", "trace_samples", "workload")
_INTEREST_FIELDS = (
    "seed",
    "n_items",
    "n_repositories",
    "t_percent",
    "subscription_probability",
)
_CLIENT_FIELDS = _INTEREST_FIELDS + ("clients_per_repository",)


def _generate_client_tolerances(
    config: SimulationConfig,
    profiles: dict[int, InterestProfile],
    rng: np.random.Generator,
) -> dict[tuple[int, int], np.ndarray]:
    """Attach ``clients_per_repository`` modeled clients to each repository.

    Clients connect to repositories, not to the source, and Section 1.2
    defines a repository's requirement from theirs: *"the coherency
    requirement for data item x at a repository R is defined to be the
    most stringent coherency requirement across all clients that obtain
    x from R"*.  So each client subscribes to one of its repository's
    items (uniformly) and requires a coherency in ``[c_repo,
    2*c_repo)``, where ``c_repo`` is the repository's own tolerance for
    the item -- clients can never be *more* stringent than the copy
    their repository receives (the same Eq. (1) monotonicity the
    repository plane obeys).  Every plane serves these blocks, at
    scoring time.  Each block is sorted ascending -- the order inside a
    block is unobservable (only the ``client_checks`` /
    ``client_messages`` totals leave it), and the serving pass's
    :class:`~repro.core.dissemination.filtering.Staircase` needs an
    ascending column -- and frozen read-only; the per-run last-served
    state is each run's own.
    """
    n = config.clients_per_repository
    tolerances: dict[tuple[int, int], np.ndarray] = {}
    for repo in sorted(profiles):
        requirements = profiles[repo].requirements
        items = sorted(requirements)
        if not items:
            continue
        assignment = rng.integers(0, len(items), size=n)
        for index, item_id in enumerate(items):
            count = int(np.count_nonzero(assignment == index))
            if not count:
                continue
            c_repo = requirements[item_id]
            tols = c_repo * (1.0 + rng.random(count))
            tols.sort()
            tols.flags.writeable = False
            tolerances[(repo, item_id)] = tols
    return tolerances


def _fields_match(a: SimulationConfig, b: SimulationConfig, fields) -> bool:
    return all(getattr(a, f) == getattr(b, f) for f in fields)


def _split(
    profiles: dict[int, InterestProfile], threshold_c: float
) -> tuple[dict[int, InterestProfile], list[tuple[int, int]]]:
    """Split subscriptions by tolerance: ``(push profiles, pull pairs)``.

    A subscription with ``c <= threshold_c`` pushes; a repository with
    none is left out of the push profiles.  The pull pairs keep profile
    order.
    """
    pushed: dict[int, InterestProfile] = {}
    polled: list[tuple[int, int]] = []
    for repo, profile in profiles.items():
        tight = {}
        for item_id, c in profile.requirements.items():
            if c <= threshold_c:
                tight[item_id] = c
            else:
                polled.append((repo, item_id))
        if tight:
            pushed[repo] = InterestProfile(repository=repo, requirements=tight)
    return pushed, polled


def build_setup(
    config: SimulationConfig, base: SimulationSetup | None = None
) -> SimulationSetup:
    """Assemble network, traces, interests and the ``d3g`` for a config.

    Args:
        config: The run's parameterisation.
        base: An earlier setup to recycle expensive pieces from.  Sweeps
            that only vary, say, the offered degree reuse the network,
            traces and interest profiles unchanged (the builder checks
            which config fields actually affect each piece).  A base
            built for this very config is returned as is: setups are
            read-only.
    """
    if base is not None and base.config == config:
        return base
    streams = RandomStreams(config.seed)

    if base is not None and _fields_match(config, base.config, _NETWORK_FIELDS):
        network = base.network
    elif (
        base is not None
        and _fields_match(config, base.config, _NETWORK_FIELDS[:-1])
        and config.comm_target_ms is not None
        and base.network.mean_repo_delay_ms() > 0.0
    ):
        # Same topology, different delay target: rescale instead of
        # regenerating (uniform scaling preserves shortest paths).
        network = base.network.with_repo_mean_delay(config.comm_target_ms)
    else:
        network = _build_network(config, streams)
        if config.comm_target_ms is not None:
            network = network.with_repo_mean_delay(config.comm_target_ms)

    items = [DataItem(item_id=i, name=f"ITEM{i:03d}") for i in range(config.n_items)]
    if base is not None and _fields_match(config, base.config, _TRACE_FIELDS):
        traces = base.traces
    else:
        # The workload owns the update dynamics; the builder only owns
        # the stream derivation, so every workload sees the same named
        # per-item streams the Table 1 default always has.
        traces = {
            item.item_id: trace
            for item, trace in zip(
                items,
                config.workload.make_traces(
                    config.n_items,
                    rng_factory=lambda i: streams.spawn("traces", i),
                    n_samples=config.trace_samples,
                ),
            )
        }

    if base is not None and _fields_match(config, base.config, _INTEREST_FIELDS):
        profiles = base.profiles
    else:
        mix = CoherencyMix(t_percent=config.t_percent)
        profiles = generate_interests(
            repositories=[int(r) for r in network.repository_ids],
            items=items,
            mix=mix,
            rng=streams.stream("interests"),
            subscription_probability=config.subscription_probability,
        )
        # Sub-quantum or non-finite tolerances would silently collapse to
        # 0.0 under quantisation (see repro.core.dissemination.filtering);
        # fail at build time with the offending pair named.
        for repo in sorted(profiles):
            for item_id, c_own in sorted(profiles[repo].requirements.items()):
                validate_tolerance(
                    c_own, f"repository {repo}, item {item_id}: coherency tolerance"
                )

    if config.clients_per_repository > 0:
        if base is not None and _fields_match(config, base.config, _CLIENT_FIELDS):
            client_tolerances = base.client_tolerances
        else:
            client_tolerances = _generate_client_tolerances(
                config, profiles, streams.stream("clients")
            )
    else:
        client_tolerances = None

    if base is not None and base.traces is traces and base.update_schedule is not None:
        update_schedule = base.update_schedule
    else:
        update_schedule = UpdateSchedule.from_traces(traces)

    avg_comm = network.mean_repo_delay_ms()
    if config.controlled_cooperation:
        effective = min(
            config.offered_degree,
            coop_degree(
                avg_comm_delay_ms=avg_comm,
                avg_comp_delay_ms=config.comp_delay_ms,
                f=config.interest_fraction_f,
                c_resources=config.offered_degree,
            ),
        )
    else:
        effective = config.offered_degree

    lela = LelaInputs.of(config, network, effective)
    pushed, polled = profiles, []
    if config.pull is not None:
        pushed, polled = _split(profiles, config.pull.threshold_c)
    if config.churn is not None:
        # A churn run's initial members join one by one, by the call a
        # mid-run join makes, so that a later join, departure or
        # requirement change continues the same join order and seeding;
        # the schedule is validated against the repository pool here,
        # before any simulation work happens.
        config.churn.validate_items(config.n_items)
        members = config.churn.initial_members(profiles)
        graph = DisseminationGraph(network.source)
        for count, repo in enumerate(members, start=1):
            lela.insert(graph, profiles[repo], members[:count])
        graph.validate(max_dependents=lela.budgets(members))
    else:
        graph = lela.build([pushed[r] for r in sorted(pushed)], streams.stream("lela"))
    # A pair whose item the d3g delivers anyway (an augmented relay's) is
    # served by push and does not poll.
    polls = tuple(
        (repo, x)
        for repo, x in polled
        if repo not in graph.nodes or x not in graph.nodes[repo].receive_c
    )

    return SimulationSetup(
        config=config,
        network=network,
        items=items,
        traces=traces,
        profiles=profiles,
        graph=graph,
        effective_degree=effective,
        avg_comm_delay_ms=avg_comm,
        update_schedule=update_schedule,
        client_tolerances=client_tolerances,
        polls=polls,
    )
