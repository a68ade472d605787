"""Mid-run churn schedules: timed joins, departures and coherency changes.

Section 4 of the paper prescribes *reapplying* the dissemination
algorithm whenever a repository's data or coherency needs change;
:mod:`repro.core.dynamics` implements that reapplication offline.  This
module makes churn a first-class simulation input: a
:class:`ChurnSchedule` is an immutable, hashable sequence of
:class:`ChurnEvent` instants that the engine executes *mid-run* --
applying :class:`~repro.core.dynamics.DynamicMembership`, diffing the
dissemination graph, and rewiring only the changed service edges in the
live kernel.

Semantics:

- Every event names a repository from the config's repository pool
  (node ids ``1 .. n_repositories``).
- A repository whose *first* event is a ``join`` is a **late joiner**:
  it is excluded from the initial ``d3g`` and inserted at its scheduled
  time (with its generated interest profile, unless the event carries
  explicit requirements).
- ``depart`` removes a current member; the algorithm is reapplied and
  update messages still in flight toward the departed node are counted
  as drops.
- ``update`` replaces a member's requirements (the paper's "data or
  data coherency needs change") and reapplies the algorithm.

Because the schedule lives inside the frozen
:class:`~repro.engine.config.SimulationConfig`, a config still fully
determines its result -- the property the parallel sweep subsystem's
bit-identical merging rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.core.interests import InterestProfile
from repro.core.items import CoherencyMix
from repro.errors import ConfigurationError

__all__ = [
    "ChurnEvent",
    "ChurnSchedule",
    "synthetic_schedule",
    "schedule_for_config",
    "parse_churn_spec",
]

#: Recognised event kinds, in documentation order.
KINDS = ("join", "depart", "update")


def _freeze_requirements(requirements) -> tuple[tuple[int, float], ...]:
    """Normalise a requirements mapping into a sorted, hashable tuple."""
    if isinstance(requirements, dict):
        pairs = requirements.items()
    else:
        pairs = list(requirements)
    frozen = tuple(sorted((int(i), float(c)) for i, c in pairs))
    for item_id, c in frozen:
        if c <= 0:
            raise ConfigurationError(
                f"tolerance for item {item_id} must be positive, got {c!r}"
            )
    if len({i for i, _ in frozen}) != len(frozen):
        raise ConfigurationError("duplicate item in requirements")
    return frozen


@dataclass(frozen=True)
class ChurnEvent:
    """One timed membership change.

    Attributes:
        time: Simulated time (seconds) at which the change takes effect.
        kind: ``"join"``, ``"depart"`` or ``"update"``.
        repository: The repository the change concerns.
        requirements: For ``update`` (mandatory) and ``join`` (optional),
            the repository's new ``(item_id, tolerance)`` pairs; ``None``
            on a join means "use the generated interest profile".
    """

    time: float
    kind: str
    repository: int
    requirements: tuple[tuple[int, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.time != self.time or self.time < 0:
            raise ConfigurationError(
                f"churn event time must be non-negative, got {self.time!r}"
            )
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown churn event kind {self.kind!r}; choose from {KINDS}"
            )
        if self.kind == "update" and not self.requirements:
            raise ConfigurationError(
                "update events must carry the new requirements"
            )
        if self.kind == "depart" and self.requirements is not None:
            raise ConfigurationError("depart events carry no requirements")
        if self.requirements is not None:
            object.__setattr__(
                self, "requirements", _freeze_requirements(self.requirements)
            )

    def profile(self) -> InterestProfile | None:
        """The event's requirements as an :class:`InterestProfile`."""
        if self.requirements is None:
            return None
        return InterestProfile(
            repository=self.repository, requirements=dict(self.requirements)
        )

    @classmethod
    def join(cls, time: float, repository: int, requirements=None) -> "ChurnEvent":
        req = None if requirements is None else _freeze_requirements(requirements)
        return cls(time=time, kind="join", repository=repository, requirements=req)

    @classmethod
    def depart(cls, time: float, repository: int) -> "ChurnEvent":
        return cls(time=time, kind="depart", repository=repository)

    @classmethod
    def update(cls, time: float, repository: int, requirements) -> "ChurnEvent":
        return cls(
            time=time,
            kind="update",
            repository=repository,
            requirements=_freeze_requirements(requirements),
        )


@dataclass(frozen=True)
class ChurnSchedule:
    """An immutable sequence of churn events, sorted by time.

    Ties keep construction order (and the engine schedules churn before
    same-instant trace updates), so execution order is deterministic.
    """

    events: tuple[ChurnEvent, ...] = ()

    def __post_init__(self) -> None:
        events = tuple(self.events)
        for event in events:
            if not isinstance(event, ChurnEvent):
                raise ConfigurationError(
                    f"schedule entries must be ChurnEvent, got {type(event).__name__}"
                )
        object.__setattr__(
            self, "events", tuple(sorted(events, key=lambda e: e.time))
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[ChurnEvent]:
        return iter(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def count(self, kind: str) -> int:
        """Number of events of one kind."""
        if kind not in KINDS:
            raise ConfigurationError(f"unknown churn event kind {kind!r}")
        return sum(1 for e in self.events if e.kind == kind)

    def late_joiners(self) -> frozenset:
        """Repositories whose first event is a join (not initial members)."""
        first_kind: dict[int, str] = {}
        for event in self.events:
            first_kind.setdefault(event.repository, event.kind)
        return frozenset(r for r, k in first_kind.items() if k == "join")

    def validate_items(self, n_items: int) -> None:
        """Check every event's requirements against the item universe.

        Raises:
            ConfigurationError: when an event references an item id
                outside ``0 .. n_items - 1``.
        """
        for event in self.events:
            for item_id, _c in event.requirements or ():
                if not 0 <= item_id < n_items:
                    raise ConfigurationError(
                        f"t={event.time}: {event.kind} event for repository "
                        f"{event.repository} references unknown item {item_id} "
                        f"(universe has {n_items} items)"
                    )

    def departure_windows(self) -> dict[int, list[tuple[float, float | None]]]:
        """Per repository: half-open ``[t_depart, t_rejoin-or-None)``
        windows, the departure-side twin of
        :meth:`~repro.engine.failures.FailureSchedule.crash_windows` (churn
        applies before same-instant deliveries)."""
        windows: dict[int, list[tuple[float, float | None]]] = {}
        for event in self.events:
            spans = windows.get(event.repository)
            if event.kind == "depart":
                windows.setdefault(event.repository, []).append((float(event.time), None))
            elif event.kind == "join" and spans:
                spans[-1] = (spans[-1][0], float(event.time))
        return windows

    def initial_members(self, repositories: Iterable[int]) -> list[int]:
        """Validate against a repository pool; return the initial members.

        Simulates the membership transitions: joins must not target
        current members, departures and updates must target members, and
        every event's repository must exist in the pool.

        Raises:
            ConfigurationError: on any inconsistency.
        """
        pool = sorted({int(r) for r in repositories})
        pool_set = set(pool)
        unknown = sorted({e.repository for e in self.events} - pool_set)
        if unknown:
            raise ConfigurationError(
                f"churn events reference unknown repositories {unknown}"
            )
        members = pool_set - self.late_joiners()
        for event in self.events:
            if event.kind == "join":
                if event.repository in members:
                    raise ConfigurationError(
                        f"t={event.time}: repository {event.repository} "
                        "cannot join; it is already a member"
                    )
                members.add(event.repository)
            else:
                if event.repository not in members:
                    raise ConfigurationError(
                        f"t={event.time}: repository {event.repository} "
                        f"cannot {event.kind}; it is not a member"
                    )
                if event.kind == "depart":
                    members.remove(event.repository)
        return [r for r in pool if r not in self.late_joiners()]


def synthetic_schedule(
    *,
    repositories: Iterable[int],
    n_items: int,
    span_s: float,
    joins: int = 0,
    departs: int = 0,
    updates: int = 0,
    t_percent: float = 80.0,
    subscription_probability: float = 0.5,
    seed: int = 0,
    window: tuple[float, float] = (0.05, 0.85),
) -> ChurnSchedule:
    """Generate a consistent random churn schedule with a seeded RNG.

    Events are placed uniformly inside ``window`` (as fractions of
    ``span_s``, leaving the tail churn-free so post-reconfiguration
    behaviour is observable), late joiners are sampled from the pool,
    and depart/update targets are drawn only from repositories that are
    members at the event's time -- the schedule is valid by construction.

    Args:
        repositories: The repository node-id pool.
        n_items: Size of the data-item universe (ids ``0..n_items-1``).
        span_s: Observation-window length in seconds.
        joins / departs / updates: Event counts per kind.
        t_percent: Stringent share for redrawn tolerances (update events).
        subscription_probability: P(item wanted) for redrawn profiles.
        seed: Seed for the schedule's own RNG.
        window: ``(lo, hi)`` fractions of ``span_s`` holding the events.

    Raises:
        ConfigurationError: on impossible counts (more joins than
            repositories, departures that would empty the network, ...).
    """
    if min(joins, departs, updates) < 0:
        raise ConfigurationError("churn event counts must be non-negative")
    if n_items < 1:
        raise ConfigurationError("n_items must be >= 1")
    if span_s <= 0:
        raise ConfigurationError(f"span_s must be positive, got {span_s!r}")
    repos = sorted({int(r) for r in repositories})
    if not repos:
        raise ConfigurationError("need at least one repository to churn")
    if joins > len(repos):
        raise ConfigurationError(
            f"cannot schedule {joins} joins over {len(repos)} repositories"
        )
    total = joins + departs + updates
    if total == 0:
        return ChurnSchedule()

    rng = np.random.default_rng(seed)
    lo, hi = window
    if not 0.0 <= lo < hi <= 1.0:
        raise ConfigurationError(f"window must satisfy 0 <= lo < hi <= 1, got {window!r}")
    times = np.sort(rng.uniform(lo * span_s, hi * span_s, size=total))
    kinds = ["join"] * joins + ["depart"] * departs + ["update"] * updates
    rng.shuffle(kinds)

    late = [repos[i] for i in rng.choice(len(repos), size=joins, replace=False)]
    live = sorted(set(repos) - set(late))
    mix = CoherencyMix(t_percent=t_percent)
    join_queue = list(late)
    events: list[ChurnEvent] = []
    for t, kind in zip(times, kinds):
        t = float(t)
        if kind == "join":
            repo = join_queue.pop(0)
            events.append(ChurnEvent.join(t, repo))
            live.append(repo)
            live.sort()
        elif kind == "depart":
            if len(live) < 2:
                raise ConfigurationError(
                    "cannot schedule a departure that would empty the network; "
                    "reduce departs or add repositories"
                )
            repo = live[int(rng.integers(len(live)))]
            live.remove(repo)
            events.append(ChurnEvent.depart(t, repo))
        else:
            if not live:
                raise ConfigurationError(
                    "cannot schedule a coherency change with no live members"
                )
            repo = live[int(rng.integers(len(live)))]
            wanted = [i for i in range(n_items) if rng.random() < subscription_probability]
            if not wanted:
                wanted = [int(rng.integers(n_items))]
            tolerances = mix.draw(len(wanted), rng)
            events.append(
                ChurnEvent.update(t, repo, zip(wanted, (float(c) for c in tolerances)))
            )
    return ChurnSchedule(tuple(events))


def schedule_for_config(
    config,
    *,
    joins: int = 0,
    departs: int = 0,
    updates: int = 0,
    seed: int | None = None,
) -> ChurnSchedule:
    """Synthesise a schedule matched to a :class:`SimulationConfig`.

    Repository ids, item universe, trace span and the tolerance mix all
    come from the config (repositories occupy node ids
    ``1 .. n_repositories`` by the topology contract), so the same
    config always yields the same schedule.

    Args:
        config: The run's :class:`~repro.engine.config.SimulationConfig`
            (duck-typed; only scalar fields are read).
        joins / departs / updates: Event counts per kind.
        seed: Schedule RNG seed; defaults to ``config.seed``.
    """
    return synthetic_schedule(
        repositories=range(1, config.n_repositories + 1),
        n_items=config.n_items,
        span_s=float(max(config.trace_samples - 1, 1)),
        joins=joins,
        departs=departs,
        updates=updates,
        t_percent=config.t_percent,
        subscription_probability=config.subscription_probability,
        seed=config.seed if seed is None else seed,
    )


def parse_churn_spec(text: str) -> tuple[int, int, int]:
    """Parse the CLI's ``--churn J,D,U`` counts.

    Raises:
        ConfigurationError: on malformed specs or negative counts.
    """
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ConfigurationError(
            f"churn spec must be 'JOINS,DEPARTS,UPDATES', got {text!r}"
        )
    try:
        joins, departs, updates = (int(p) for p in parts)
    except ValueError:
        raise ConfigurationError(
            f"churn spec must hold three integers, got {text!r}"
        ) from None
    if min(joins, departs, updates) < 0:
        raise ConfigurationError(f"churn counts must be non-negative, got {text!r}")
    return joins, departs, updates
