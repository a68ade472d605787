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

Because the schedule lives inside the frozen
:class:`~repro.engine.config.SimulationConfig`, a config still fully
determines its result -- the determinism contract every subsystem
(sweep merging, the result cache, the live cross-check) rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "FailureEvent",
    "FailureSchedule",
    "in_windows",
    "synthetic_failures",
    "failures_for_config",
    "parse_failure_spec",
]

#: Recognised event kinds, in documentation order.
KINDS = ("crash", "recover", "link_down", "link_up")

#: Kinds that name a repository / a link, respectively.
_REPO_KINDS = ("crash", "recover")
_LINK_KINDS = ("link_down", "link_up")


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
        if self.time != self.time or self.time < 0:
            raise ConfigurationError(
                f"failure event time must be non-negative, got {self.time!r}"
            )
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown failure event kind {self.kind!r}; choose from {KINDS}"
            )
        if self.kind in _REPO_KINDS:
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
class FailureSchedule:
    """An immutable sequence of failure events, sorted by time.

    Construction validates internal consistency: per repository, crash
    and recover events must strictly alternate starting with a crash
    (and at strictly increasing times); per link, down and up events
    likewise.  Node-id ranges are checked against the config in
    :class:`~repro.engine.config.SimulationConfig`.
    """

    events: tuple[FailureEvent, ...] = ()

    def __post_init__(self) -> None:
        events = tuple(self.events)
        for event in events:
            if not isinstance(event, FailureEvent):
                raise ConfigurationError(
                    f"schedule entries must be FailureEvent, got {type(event).__name__}"
                )
        events = tuple(sorted(events, key=lambda e: e.time))
        object.__setattr__(self, "events", events)
        self._check_alternation()

    def _check_alternation(self) -> None:
        down_at: dict = {}  # subject -> time of the open crash/down
        seen: dict = {}  # subject -> time of the subject's last event
        for event in self.events:
            subject = (
                ("repo", event.repository)
                if event.kind in _REPO_KINDS
                else ("link", event.link)
            )
            last = seen.get(subject)
            if last is not None and event.time <= last:
                raise ConfigurationError(
                    f"t={event.time}: events for {subject[0]} {subject[1]} "
                    "must be at strictly increasing times"
                )
            seen[subject] = event.time
            opening = event.kind in ("crash", "link_down")
            if opening:
                if subject in down_at:
                    raise ConfigurationError(
                        f"t={event.time}: {subject[0]} {subject[1]} is already "
                        f"down (since t={down_at[subject]})"
                    )
                down_at[subject] = event.time
            else:
                if subject not in down_at:
                    raise ConfigurationError(
                        f"t={event.time}: {event.kind} for {subject[0]} "
                        f"{subject[1]} without a preceding failure"
                    )
                del down_at[subject]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FailureEvent]:
        return iter(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def count(self, kind: str) -> int:
        """Number of events of one kind."""
        if kind not in KINDS:
            raise ConfigurationError(f"unknown failure event kind {kind!r}")
        return sum(1 for e in self.events if e.kind == kind)

    def validate_nodes(self, n_repositories: int) -> None:
        """Check event targets against the topology contract.

        Repositories occupy node ids ``1 .. n_repositories``; the source
        cannot crash (the paper's source is the ground truth), and link
        endpoints must be source-or-repository nodes.

        Raises:
            ConfigurationError: on any out-of-range target.
        """
        for event in self.events:
            if event.kind in _REPO_KINDS:
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

    def crash_windows(self) -> dict[int, list[tuple[float, float | None]]]:
        """Per repository: ``[(t_crash, t_recover-or-None), ...]``.

        Windows are half-open ``[t_crash, t_recover)``, matching the
        kernels' tie-break (failure events apply before same-instant
        deliveries), so a membership test against a window reproduces
        the event-driven semantics exactly.
        """
        windows: dict[int, list[tuple[float, float | None]]] = {}
        for event in self.events:
            if event.kind == "crash":
                windows.setdefault(event.repository, []).append(
                    (float(event.time), None)
                )
            elif event.kind == "recover":
                spans = windows[event.repository]
                spans[-1] = (spans[-1][0], float(event.time))
        return windows

    def link_windows(self) -> dict[tuple[int, int], list[tuple[float, float | None]]]:
        """Per directed link: half-open ``[t_down, t_up)`` windows."""
        windows: dict[tuple[int, int], list[tuple[float, float | None]]] = {}
        for event in self.events:
            if event.kind == "link_down":
                windows.setdefault(event.link, []).append((float(event.time), None))
            elif event.kind == "link_up":
                spans = windows[event.link]
                spans[-1] = (spans[-1][0], float(event.time))
        return windows


def in_windows(windows, t: float) -> bool:
    """Is ``t`` inside any of the half-open ``[start, end-or-None)`` windows?"""
    return any(t >= start and (end is None or t < end) for start, end in windows)


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
    if min(crashes, partitions) < 0:
        raise ConfigurationError("failure event counts must be non-negative")
    if span_s <= 0:
        raise ConfigurationError(f"span_s must be positive, got {span_s!r}")
    lo, hi = window
    if not 0.0 <= lo < hi <= 1.0:
        raise ConfigurationError(
            f"window must satisfy 0 <= lo < hi <= 1, got {window!r}"
        )
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
    if crashes + partitions == 0:
        return FailureSchedule()

    rng = np.random.default_rng(seed)
    events: list[FailureEvent] = []
    targets = [repos[i] for i in rng.choice(len(repos), size=crashes, replace=False)]
    for repo in targets:
        t_down = float(rng.uniform(lo * span_s, hi * span_s))
        t_up = t_down + float(rng.uniform(d_lo * span_s, d_hi * span_s))
        events.append(FailureEvent.crash(t_down, repo))
        events.append(FailureEvent.recover(t_up, repo))
    cut = [edges[i] for i in rng.choice(len(edges), size=partitions, replace=False)]
    for sender, receiver in cut:
        t_down = float(rng.uniform(lo * span_s, hi * span_s))
        t_up = t_down + float(rng.uniform(d_lo * span_s, d_hi * span_s))
        events.append(FailureEvent.link_down(t_down, sender, receiver))
        events.append(FailureEvent.link_up(t_up, sender, receiver))
    return FailureSchedule(tuple(events))


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
    """Parse the CLI's ``--failures CRASHES,PARTITIONS`` counts.

    Raises:
        ConfigurationError: on malformed specs or negative counts.
    """
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigurationError(
            f"failure spec must be 'CRASHES,PARTITIONS', got {text!r}"
        )
    try:
        crashes, partitions = (int(p) for p in parts)
    except ValueError:
        raise ConfigurationError(
            f"failure spec must hold two integers, got {text!r}"
        ) from None
    if min(crashes, partitions) < 0:
        raise ConfigurationError(
            f"failure counts must be non-negative, got {text!r}"
        )
    return crashes, partitions
