"""Deterministic per-update trace spans for every execution plane.

Each workload update gets a stable ``update_id`` -- the index of the
update in the run's time-sorted update schedule.  The scalar kernel
numbers updates as it schedules them, the vectorized kernel reuses its
drain-loop schedule index, and the live/fleet planes derive the same id
from the source sequence number (``seq - 1``), so a span stream recorded
on any plane -- or merged across fleet shards -- tells one coherent
story per update.

A trace is a flat list of :class:`SpanEvent` records, one per hop-level
decision, and there is one hook per kind -- ``on_source``, ``on_check``,
``on_forward``, ``on_drop``, ``on_deliver`` -- which both engines, the
live nodes and the live runtime call per decision:

``source``
    The origin examined the update (``checks`` bookkeeping for
    centralized tagging) and either disseminated or suppressed it.
``check``
    A node evaluated one child edge's coherency filter; ``forwarded``
    says whether the edge fired, ``reason`` names the policy-specific
    filter rule when it did not.
``forward``
    A message left on an edge (sums to ``CostCounters.messages``).
``drop``
    A message died in flight -- ``reason`` is one of ``partition``,
    ``loss``, ``crash``, ``departed`` or ``wire``, and ``time`` the
    instant of that decision: the send instant for ``partition`` and
    ``loss``, the arrival stamp for the rest
    (sums to ``CostCounters.drops``).
``deliver``
    A repository applied the update (sums to
    ``CostCounters.deliveries``).

**Determinism contract.**  The recorder is write-only: hook methods
append to a list (and feed the attached
:class:`~repro.obs.metrics.MetricsRegistry`) but never touch simulation
state, consume randomness, or change event ordering.  Engines guard
every hook site with ``if observer is not None``, so a run without a
recorder does no observability work at all, and a run *with* one
produces a bit-identical result -- ``tests/obs`` pins both properties.

Reconciliation.  :meth:`TraceRecorder.totals` re-derives the message
economy from spans alone; golden and property tests assert it equals
the run's ``CostCounters`` exactly.  Client-plane serving, anti-entropy
resync and reconfiguration charges are deliberately outside the span
economy, mirroring how ``CostCounters`` separates those fields from
``messages``/``drops``/``deliveries``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "SpanEvent",
    "TraceTotals",
    "TraceRecorder",
    "FILTER_REASONS",
    "SOURCE_SUPPRESSED",
]

#: Why a ``check`` span did not forward, by policy.  Each policy filters
#: by a different rule, so the reason string is derived from the
#: config's policy name once, at recorder construction.
FILTER_REASONS = {
    "distributed": "within-tolerance-and-slack",
    "eq3_only": "within-tolerance",
    "flooding": "duplicate-value",
    "centralized": "tag-not-covering",
}

#: Reason attached to a ``source`` span whose update never left the
#: origin (no dependent tolerance was violated).
SOURCE_SUPPRESSED = "suppressed-at-source"


@dataclass(frozen=True, slots=True)
class SpanEvent:
    """One hop-level trace record.

    Attributes:
        kind: ``source`` | ``check`` | ``forward`` | ``drop`` |
            ``deliver``.
        update_id: Schedule index of the workload update (stable across
            kernels, planes and fleet shards).
        item_id: The data item the update belongs to.
        time: Simulated time of the decision, seconds.
        node: The acting node -- examining source, checking/sending
            parent, or (for ``deliver``) the receiving repository.
        dst: Edge target for ``check``/``forward``/``drop``; ``None``
            for ``source`` and ``deliver`` spans.
        checks: Coherency checks charged by this span (``source`` and
            ``check`` kinds; 0 otherwise).
        forwarded: For ``check``/``source`` spans, whether the filter
            let the update through; ``None`` otherwise.
        reason: Filter rule or drop cause; ``None`` on success spans.
        is_source: Whether ``node`` acted in its source role (splits
            check reconciliation into ``source_checks`` vs
            ``repository_checks``).
    """

    kind: str
    update_id: int
    item_id: int
    time: float
    node: int
    dst: int | None = None
    checks: int = 0
    forwarded: bool | None = None
    reason: str | None = None
    is_source: bool = False


@dataclass(frozen=True)
class TraceTotals:
    """The message economy as re-derived purely from span events."""

    messages: int = 0
    source_checks: int = 0
    repository_checks: int = 0
    deliveries: int = 0
    drops: int = 0


class TraceRecorder:
    """Collects :class:`SpanEvent` streams plus side-channel metrics.

    An instance is attached out-of-band (an ``observer=`` keyword or a
    network attribute -- never a config field, so result-cache keys are
    unaffected) and passively records what the engine was going to do
    anyway.  ``policy`` names the run's dissemination policy so filter
    reasons can be derived; ``metrics`` defaults to a fresh
    :class:`~repro.obs.metrics.MetricsRegistry` fed with per-edge
    simulated-latency observations.
    """

    def __init__(self, policy: str | None = None, metrics: MetricsRegistry | None = None):
        self.policy = policy
        self.events: list[SpanEvent] = []
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._filter_reason = FILTER_REASONS.get(policy, "filtered")

    # ------------------------------------------------------------------
    # Hook methods: one vocabulary for every engine, node and runtime
    # ------------------------------------------------------------------

    def on_source(
        self,
        update_id: int,
        item_id: int,
        t: float,
        node: int,
        checks: int,
        disseminated: bool,
    ) -> None:
        """The source examined one workload update."""
        self.events.append(
            SpanEvent(
                kind="source",
                update_id=update_id,
                item_id=item_id,
                time=t,
                node=node,
                checks=checks,
                forwarded=disseminated,
                reason=None if disseminated else SOURCE_SUPPRESSED,
                is_source=True,
            )
        )

    def on_check(
        self,
        update_id: int,
        item_id: int,
        t: float,
        node: int,
        dst: int,
        checks: int,
        forwarded: bool,
        is_source: bool,
    ) -> None:
        """A node evaluated one child edge's coherency filter."""
        self.events.append(
            SpanEvent(
                kind="check",
                update_id=update_id,
                item_id=item_id,
                time=t,
                node=node,
                dst=dst,
                checks=checks,
                forwarded=forwarded,
                reason=None if forwarded else self._filter_reason,
                is_source=is_source,
            )
        )

    def on_forward(
        self,
        update_id: int,
        item_id: int,
        t: float,
        node: int,
        dst: int,
        latency_s: float,
    ) -> None:
        """A message left ``node`` toward ``dst`` (arrives latency_s later)."""
        self.events.append(
            SpanEvent(
                kind="forward",
                update_id=update_id,
                item_id=item_id,
                time=t,
                node=node,
                dst=dst,
            )
        )
        self.metrics.histogram(f"edge_latency_ms[{node}->{dst}]").observe(
            latency_s * 1000.0
        )

    def on_drop(
        self,
        update_id: int,
        item_id: int,
        t: float,
        node: int,
        dst: int,
        reason: str,
    ) -> None:
        """A message from ``node`` to ``dst`` died in flight."""
        self.events.append(
            SpanEvent(
                kind="drop",
                update_id=update_id,
                item_id=item_id,
                time=t,
                node=node,
                dst=dst,
                reason=reason,
            )
        )
        self.metrics.counter(f"drops[{reason}]").inc()

    def on_deliver(self, update_id: int, item_id: int, t: float, node: int) -> None:
        """Repository ``node`` applied the update."""
        self.events.append(
            SpanEvent(
                kind="deliver",
                update_id=update_id,
                item_id=item_id,
                time=t,
                node=node,
            )
        )

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def absorb(self, events: Iterable[SpanEvent]) -> None:
        """Append spans recorded elsewhere (fleet worker reports)."""
        self.events.extend(events)

    def spans(self, update_id: int) -> list[SpanEvent]:
        """All spans of one update, in recorded order."""
        return [ev for ev in self.events if ev.update_id == update_id]

    def by_update(self) -> dict[int, list[SpanEvent]]:
        """Spans grouped by update id (insertion order preserved)."""
        grouped: dict[int, list[SpanEvent]] = {}
        for ev in self.events:
            grouped.setdefault(ev.update_id, []).append(ev)
        return grouped

    def totals(self) -> TraceTotals:
        """Re-derive the message economy from spans alone.

        Equals the run's ``CostCounters`` fields exactly:
        ``messages``, ``source_checks``, ``repository_checks``,
        ``deliveries`` and ``drops`` -- the reconciliation identity the
        golden and property suites pin.
        """
        messages = deliveries = drops = source_checks = repository_checks = 0
        for ev in self.events:
            kind = ev.kind
            if kind == "forward":
                messages += 1
            elif kind == "deliver":
                deliveries += 1
            elif kind == "drop":
                drops += 1
            elif kind == "check":
                if ev.is_source:
                    source_checks += ev.checks
                else:
                    repository_checks += ev.checks
            elif kind == "source":
                source_checks += ev.checks
        return TraceTotals(
            messages=messages,
            source_checks=source_checks,
            repository_checks=repository_checks,
            deliveries=deliveries,
            drops=drops,
        )

    def to_jsonable(self) -> list[dict]:
        """Spans as plain dicts, ready for ``json.dump``."""
        return [asdict(ev) for ev in self.events]

    def write_json(self, path: str | Path) -> Path:
        """Export the span stream as a JSON artifact; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_jsonable(), indent=2) + "\n")
        return path

    def __len__(self) -> int:
        return len(self.events)
