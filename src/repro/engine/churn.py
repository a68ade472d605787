"""Mid-run churn schedules: timed joins, departures and coherency changes.

Section 4 of the paper prescribes *reapplying* the dissemination
algorithm whenever a repository's data or coherency needs change.  This
module makes churn a first-class simulation input: a
:class:`ChurnSchedule` is an immutable, hashable sequence of
:class:`ChurnEvent` instants that every plane executes *mid-run*
through the :class:`~repro.engine.reconfig.ReconfigurationCore` -- one
LeLA call per event on the core's current graph and members (a join
inserts, a departure or an update rebuilds in join order), then only
the changed service edges rewired in the running network.

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

Churn and failure schedules (:mod:`repro.engine.failures`) are both a
:class:`ControlSchedule` and differ only in their kind tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.core.interests import InterestProfile
from repro.core.items import CoherencyMix
from repro.errors import ConfigurationError

__all__ = [
    "ControlSchedule",
    "ChurnEvent",
    "ChurnSchedule",
    "synthetic_schedule",
    "schedule_for_config",
    "parse_churn_spec",
    "parse_counts",
]


class ControlSchedule:
    """An immutable, time-sorted sequence of control events: what churn
    and failure schedules share.

    A subclass is a frozen dataclass with one ``events`` field; it names
    its ``EVENT`` type, its ``NAME`` in messages and its kind table
    ``TOGGLES``: per kind, in documentation order, the toggle the kind
    moves and its subject's state on it before and after (``True``:
    away).  ``STRICT_TIMES`` makes a subject's events take strictly
    increasing times; ``LATE_START`` lets a subject start in the state
    its first event needs.  Ties keep construction order, so execution
    order is deterministic.
    """

    STRICT_TIMES = LATE_START = False

    def __post_init__(self) -> None:
        events = tuple(self.events)
        for event in events:
            if not isinstance(event, self.EVENT):
                raise ConfigurationError(
                    f"schedule entries must be {self.EVENT.__name__}, "
                    f"got {type(event).__name__}"
                )
        object.__setattr__(
            self, "events", tuple(sorted(events, key=lambda e: e.time))
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator:
        return iter(self.events)

    @classmethod
    def check(cls, kind: str, time: float = 0.0) -> None:
        """Refuse a kind outside the table, or a negative or NaN time."""
        if time != time or time < 0:
            raise ConfigurationError(
                f"{cls.NAME} event time must be non-negative, got {time!r}"
            )
        if kind not in cls.TOGGLES:
            raise ConfigurationError(
                f"unknown {cls.NAME} event kind {kind!r}; "
                f"choose from {tuple(cls.TOGGLES)}"
            )

    def count(self, kind: str) -> int:
        """Number of events of one kind."""
        self.check(kind)
        return sum(1 for e in self.events if e.kind == kind)

    def walk(self) -> set:
        """Check every subject's toggles in one pass; return the
        subjects that start away.

        Each kind moves ``event.subject`` along one toggle of
        ``TOGGLES``; an event that finds its subject in the other state
        is refused.
        """
        state: dict = {}  # (toggle, subject) -> (away, time of its last event)
        late: set = set()
        for event in self.events:
            toggle, before, after = self.TOGGLES[event.kind]
            subject = event.subject
            if self.LATE_START and before and (toggle, subject) not in state:
                late.add(subject)
            away, last = state.get((toggle, subject), (subject in late, None))
            if self.STRICT_TIMES and last is not None and event.time <= last:
                raise ConfigurationError(
                    f"t={event.time}: events for {subject!r} must be at "
                    "strictly increasing times"
                )
            if away != before:
                raise ConfigurationError(
                    f"t={event.time}: {subject!r} cannot {event.kind} while "
                    f"{'' if away else 'not '}{toggle}"
                )
            state[toggle, subject] = (after, event.time)
        return late

    @classmethod
    def generate(cls, counts, span_s: float, window, seed: int, draw):
        """The synthetic generators' shared skeleton: check the counts
        (non-negative), ``span_s`` (positive) and ``window`` (``0 <= lo
        < hi <= 1``, fractions of ``span_s``); zero events give the
        empty schedule, else ``draw(rng, lo_s, hi_s)``'s events, with
        ``rng`` seeded by ``seed`` and the window in seconds."""
        if min(counts) < 0:
            raise ConfigurationError(f"{cls.NAME} event counts must be non-negative")
        if span_s <= 0:
            raise ConfigurationError(f"span_s must be positive, got {span_s!r}")
        lo, hi = window
        if not 0.0 <= lo < hi <= 1.0:
            raise ConfigurationError(
                f"window must satisfy 0 <= lo < hi <= 1, got {window!r}"
            )
        if not any(counts):
            return cls()
        rng = np.random.default_rng(seed)
        return cls(tuple(draw(rng, lo * span_s, hi * span_s)))


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
        ChurnSchedule.check(self.kind, self.time)
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

    @property
    def subject(self) -> int:
        """What the event toggles: its repository."""
        return self.repository

    def profile(self) -> InterestProfile | None:
        """The event's requirements as an :class:`InterestProfile`."""
        if self.requirements is None:
            return None
        return InterestProfile(
            repository=self.repository, requirements=dict(self.requirements)
        )

    @classmethod
    def join(cls, time: float, repository: int, requirements=None) -> "ChurnEvent":
        return cls(
            time=time, kind="join", repository=repository, requirements=requirements
        )

    @classmethod
    def depart(cls, time: float, repository: int) -> "ChurnEvent":
        return cls(time=time, kind="depart", repository=repository)

    @classmethod
    def update(cls, time: float, repository: int, requirements) -> "ChurnEvent":
        # Frozen first: the update check needs an empty iterator falsy.
        return cls(
            time=time,
            kind="update",
            repository=repository,
            requirements=_freeze_requirements(requirements),
        )


@dataclass(frozen=True)
class ChurnSchedule(ControlSchedule):
    """An immutable sequence of churn events, sorted by time.

    Ties keep construction order (and the engine schedules churn before
    same-instant trace updates), so execution order is deterministic.
    A repository whose first event is a join starts away (a late
    joiner); transitions are checked against a repository pool by
    :meth:`initial_members`, not at construction.
    """

    events: tuple[ChurnEvent, ...] = ()

    EVENT = ChurnEvent
    NAME = "churn"
    TOGGLES = {
        "join": ("departed", True, False),
        "depart": ("departed", False, True),
        "update": ("departed", False, False),
    }
    LATE_START = True

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

    def initial_members(self, repositories: Iterable[int]) -> list[int]:
        """Validate against a repository pool; return the initial members.

        Every event's repository must exist in the pool, and the
        membership transitions must hold (:meth:`walk`): joins must not
        target current members, departures and updates must target
        members.  Late joiners are not initial members.

        Raises:
            ConfigurationError: on any inconsistency.
        """
        pool = sorted({int(r) for r in repositories})
        unknown = sorted({e.repository for e in self.events} - set(pool))
        if unknown:
            raise ConfigurationError(
                f"churn events reference unknown repositories {unknown}"
            )
        late = self.walk()
        return [r for r in pool if r not in late]


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
    if n_items < 1:
        raise ConfigurationError("n_items must be >= 1")
    repos = sorted({int(r) for r in repositories})
    if not repos:
        raise ConfigurationError("need at least one repository to churn")
    if joins > len(repos):
        raise ConfigurationError(
            f"cannot schedule {joins} joins over {len(repos)} repositories"
        )

    def draw(rng, lo_s: float, hi_s: float) -> list[ChurnEvent]:
        times = np.sort(rng.uniform(lo_s, hi_s, size=joins + departs + updates))
        kinds = ["join"] * joins + ["depart"] * departs + ["update"] * updates
        rng.shuffle(kinds)
        late = [repos[i] for i in rng.choice(len(repos), size=joins, replace=False)]
        live = sorted(set(repos) - set(late))
        mix = CoherencyMix(t_percent=t_percent)
        events: list[ChurnEvent] = []
        for t, kind in zip(times, kinds):
            t = float(t)
            if kind == "join":
                repo = late.pop(0)
                events.append(ChurnEvent.join(t, repo))
                live.append(repo)
                live.sort()
            elif kind == "depart":
                if len(live) < 2:
                    raise ConfigurationError(
                        "cannot schedule a departure that would empty the "
                        "network; reduce departs or add repositories"
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
                wanted = [
                    i for i in range(n_items) if rng.random() < subscription_probability
                ]
                if not wanted:
                    wanted = [int(rng.integers(n_items))]
                tolerances = mix.draw(len(wanted), rng)
                events.append(
                    ChurnEvent.update(t, repo, zip(wanted, (float(c) for c in tolerances)))
                )
        return events

    return ChurnSchedule.generate(
        (joins, departs, updates), span_s, window, seed, draw
    )


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


def parse_counts(text: str, names: tuple[str, ...]) -> tuple[int, ...]:
    """Parse a CLI spec of comma-separated event counts, one per name.

    Raises:
        ConfigurationError: on a malformed spec or a negative count.
    """
    spec = ",".join(name.upper() for name in names)
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != len(names):
        raise ConfigurationError(f"spec must be {spec!r}, got {text!r}")
    try:
        counts = tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigurationError(
            f"spec {spec!r} must hold {len(names)} integers, got {text!r}"
        ) from None
    if min(counts) < 0:
        raise ConfigurationError(f"counts must be non-negative, got {text!r}")
    return counts


def parse_churn_spec(text: str) -> tuple[int, int, int]:
    """Parse the CLI's ``--churn J,D,U`` counts (see :func:`parse_counts`)."""
    return parse_counts(text, ("joins", "departs", "updates"))
