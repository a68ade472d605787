"""Unplanned failure schedules: repository crashes and link partitions.

The churn subsystem (:mod:`repro.engine.churn`) models *planned*
membership changes -- a repository announces its join or departure and
the dissemination algorithm is reapplied.  This module models the
failures the tree was never planned for: a repository **crashes**
without warning (messages toward it are lost until it **recovers**) and
a service link goes **down** (messages over it are lost until it comes
back **up**).

Semantics, decided once by
:class:`~repro.engine.reconfig.ReconfigurationCore` and therefore
executed identically by the scalar kernel, the vectorized kernel and
the live network:

- ``crash``: the repository stops receiving and forwarding.  Updates in
  flight toward it (and any sent later) count as drops.  Its orphaned
  dependents immediately **fail over** to the nearest live ancestor in
  the item's dissemination tree (backup parent); the rewiring reuses the
  churn engine's :class:`~repro.core.dynamics.ReconfigurationDiff`
  machinery and is charged into reconfiguration cost.  Fidelity for the
  crashed repository is scored only over its availability segments.
- ``recover``: the repository rejoins with stale state.  It runs a
  setdiscovery-style **anti-entropy resync** against its live parent:
  one comparison per subscribed item (the discovery round) and one
  transfer only for the items whose copy actually diverged -- the missed
  update-set, never a full state transfer.  Its re-homed dependents are
  then wired back to it.
- ``link_down`` / ``link_up``: messages sent over the named
  ``(sender, receiver)`` service edge while it is down count as drops
  (the sender still pays for them, exactly like seeded Bernoulli loss).

A :class:`FailureSchedule` is a
:class:`~repro.engine.churn.ControlSchedule` whose subjects, unlike
churn's, start up and take strictly increasing times.

Because the schedule lives inside the frozen
:class:`~repro.engine.config.SimulationConfig`, a config still fully
determines its result -- the determinism contract every subsystem
(sweep merging, the result cache, the live cross-check) rests on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.churn import ControlSchedule, parse_counts
from repro.errors import ConfigurationError

__all__ = [
    "FailureEvent",
    "FailureSchedule",
    "synthetic_failures",
    "failures_for_config",
    "parse_failure_spec",
]


@dataclass(frozen=True)
class FailureEvent:
    """One timed unplanned failure or repair.

    Attributes:
        time: Simulated time (seconds) at which the event takes effect.
        kind: ``"crash"``, ``"recover"``, ``"link_down"`` or
            ``"link_up"``.
        repository: For crash/recover, the repository concerned.
        link: For link events, the directed ``(sender, receiver)``
            service edge concerned.
    """

    time: float
    kind: str
    repository: int | None = None
    link: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        FailureSchedule.check(self.kind, self.time)
        # A kind that toggles ``crashed`` names a repository, one that
        # toggles ``down`` a link.
        if FailureSchedule.TOGGLES[self.kind][0] == "crashed":
            if self.repository is None or self.link is not None:
                raise ConfigurationError(
                    f"{self.kind} events name a repository, not a link"
                )
        else:
            if self.link is None or self.repository is not None:
                raise ConfigurationError(
                    f"{self.kind} events name a (sender, receiver) link, "
                    "not a repository"
                )
            link = tuple(int(n) for n in self.link)
            if len(link) != 2 or link[0] == link[1]:
                raise ConfigurationError(
                    f"link must be a (sender, receiver) pair of distinct "
                    f"nodes, got {self.link!r}"
                )
            object.__setattr__(self, "link", link)

    @property
    def subject(self) -> int | tuple[int, int]:
        """What the event toggles: its repository or its link."""
        return self.repository if self.link is None else self.link

    @classmethod
    def crash(cls, time: float, repository: int) -> "FailureEvent":
        return cls(time=time, kind="crash", repository=repository)

    @classmethod
    def recover(cls, time: float, repository: int) -> "FailureEvent":
        return cls(time=time, kind="recover", repository=repository)

    @classmethod
    def link_down(cls, time: float, sender: int, receiver: int) -> "FailureEvent":
        return cls(time=time, kind="link_down", link=(sender, receiver))

    @classmethod
    def link_up(cls, time: float, sender: int, receiver: int) -> "FailureEvent":
        return cls(time=time, kind="link_up", link=(sender, receiver))


@dataclass(frozen=True)
class FailureSchedule(ControlSchedule):
    """An immutable sequence of failure events, sorted by time.

    Construction validates internal consistency (:meth:`walk`): per
    repository, crash and recover events must strictly alternate
    starting with a crash (and at strictly increasing times); per link,
    down and up events likewise.  Node-id ranges are checked against the
    config in :class:`~repro.engine.config.SimulationConfig`.
    """

    events: tuple[FailureEvent, ...] = ()

    EVENT = FailureEvent
    NAME = "failure"
    TOGGLES = {
        "crash": ("crashed", False, True),
        "recover": ("crashed", True, False),
        "link_down": ("down", False, True),
        "link_up": ("down", True, False),
    }
    STRICT_TIMES = True

    def __post_init__(self) -> None:
        super().__post_init__()
        self.walk()

    def validate_nodes(self, n_repositories: int) -> None:
        """Check event targets against the topology contract.

        Repositories occupy node ids ``1 .. n_repositories``; the source
        cannot crash (the paper's source is the ground truth), and link
        endpoints must be source-or-repository nodes.

        Raises:
            ConfigurationError: on any out-of-range target.
        """
        for event in self.events:
            if event.link is None:
                if not 1 <= event.repository <= n_repositories:
                    raise ConfigurationError(
                        f"t={event.time}: {event.kind} targets repository "
                        f"{event.repository}, outside 1..{n_repositories} "
                        "(the source cannot crash)"
                    )
            else:
                for endpoint in event.link:
                    if not 0 <= endpoint <= n_repositories:
                        raise ConfigurationError(
                            f"t={event.time}: link {event.link} references "
                            f"node {endpoint}, outside 0..{n_repositories}"
                        )


def synthetic_failures(
    *,
    repositories,
    span_s: float,
    crashes: int = 0,
    partitions: int = 0,
    links=(),
    seed: int = 0,
    window: tuple[float, float] = (0.05, 0.75),
    downtime: tuple[float, float] = (0.05, 0.20),
) -> FailureSchedule:
    """Generate a consistent random failure schedule with a seeded RNG.

    Each crash picks a distinct repository, each partition a distinct
    service link; every failure gets a matching repair so recovery
    behaviour (failover *and* resync) is observable.  Failure times are
    placed uniformly inside ``window`` (fractions of ``span_s``) and
    downtimes drawn from ``downtime`` (fractions of ``span_s``), so the
    schedule is valid by construction.

    Args:
        repositories: Repository node-id pool crashes draw from.
        span_s: Observation-window length in seconds.
        crashes: Repository crash/recover pairs to schedule.
        partitions: Link down/up pairs to schedule.
        links: ``(sender, receiver)`` service edges partitions draw
            from; required when ``partitions > 0``.
        seed: Seed for the schedule's own RNG.
        window: ``(lo, hi)`` fractions of ``span_s`` holding the
            *failure* instants (repairs may land later).
        downtime: ``(lo, hi)`` fractions of ``span_s`` for each outage's
            duration.

    Raises:
        ConfigurationError: on impossible counts (more crashes than
            repositories, partitions without links, ...).
    """
    d_lo, d_hi = downtime
    if not 0.0 < d_lo <= d_hi:
        raise ConfigurationError(
            f"downtime must satisfy 0 < lo <= hi, got {downtime!r}"
        )
    repos = sorted({int(r) for r in repositories})
    if crashes > len(repos):
        raise ConfigurationError(
            f"cannot schedule {crashes} crashes over {len(repos)} repositories"
        )
    edges = sorted({(int(u), int(v)) for u, v in links})
    if partitions > len(edges):
        raise ConfigurationError(
            f"cannot schedule {partitions} partitions over {len(edges)} links"
        )

    def draw(rng, lo_s: float, hi_s: float) -> list[FailureEvent]:
        events: list[FailureEvent] = []
        targets = [repos[i] for i in rng.choice(len(repos), size=crashes, replace=False)]
        for repo in targets:
            t_down = float(rng.uniform(lo_s, hi_s))
            t_up = t_down + float(rng.uniform(d_lo * span_s, d_hi * span_s))
            events.append(FailureEvent.crash(t_down, repo))
            events.append(FailureEvent.recover(t_up, repo))
        cut = [edges[i] for i in rng.choice(len(edges), size=partitions, replace=False)]
        for sender, receiver in cut:
            t_down = float(rng.uniform(lo_s, hi_s))
            t_up = t_down + float(rng.uniform(d_lo * span_s, d_hi * span_s))
            events.append(FailureEvent.link_down(t_down, sender, receiver))
            events.append(FailureEvent.link_up(t_up, sender, receiver))
        return events

    return FailureSchedule.generate((crashes, partitions), span_s, window, seed, draw)


def failures_for_config(
    config,
    *,
    crashes: int = 0,
    partitions: int = 0,
    seed: int | None = None,
    setup=None,
):
    """Synthesise a schedule matched to a :class:`SimulationConfig`.

    Crash targets are drawn preferentially from repositories that
    *serve* other repositories in the built ``d3g`` (interior nodes), so
    crashes actually exercise failover; partition targets are real
    service edges of the same graph.  The build is deterministic, so the
    same config always yields the same schedule.

    Args:
        config: The run's :class:`~repro.engine.config.SimulationConfig`
            (without the failure schedule being generated).
        crashes / partitions: Event-pair counts per kind.
        seed: Schedule RNG seed; defaults to ``config.seed``.
        setup: Optional prebuilt setup for exactly this config (skips
            rebuilding the topology and ``d3g``).

    Returns:
        The generated :class:`FailureSchedule`.
    """
    # Local import: the builder imports the config module, which imports
    # this one -- resolving the setup lazily breaks the cycle.
    from repro.engine.builder import build_setup

    if crashes + partitions == 0:
        return FailureSchedule()
    if setup is None:
        setup = build_setup(config.with_(failures=None))
    graph = setup.graph
    edges: set[tuple[int, int]] = set()
    interior: set[int] = set()
    for node, state in graph.nodes.items():
        for child, items in state.children.items():
            if items:
                edges.add((node, child))
                if node != setup.source:
                    interior.add(node)
    pool = sorted(interior) if len(interior) >= crashes else sorted(
        set(graph.nodes) - {setup.source}
    )
    return synthetic_failures(
        repositories=pool,
        span_s=float(max(config.trace_samples - 1, 1)),
        crashes=crashes,
        partitions=partitions,
        links=edges,
        seed=config.seed if seed is None else seed,
    )


def parse_failure_spec(text: str) -> tuple[int, int]:
    """Parse the CLI's ``--failures CRASHES,PARTITIONS`` counts (see
    :func:`~repro.engine.churn.parse_counts`)."""
    return parse_counts(text, ("crashes", "partitions"))
