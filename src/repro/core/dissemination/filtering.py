"""The pure per-edge forwarding decisions, shared by sim and live code.

Every dissemination policy ultimately answers one question per
(update, service edge): *should this update be forwarded to dependent
R for item x?*  This module states the answers once, as pure functions,
so that

- the reference policy table (:mod:`repro.core.dissemination.policy`),
- the production engine's flat loop (:mod:`repro.engine.simulation`) and
- the live nodes' edge groups (:mod:`repro.live.nodes`)

share **one** code path, and the simulator can be cross-validated
against every live plane (the ``live_crosscheck`` table) without any
risk of the two re-implementing the paper's equations differently.

Four layers:

- the pure scalar functions (:func:`forward_distributed`,
  :func:`forward_eq3_only`, :func:`forward_flooding`,
  :func:`forward_centralized`, :func:`tag_for_update`) -- stateless,
  trivially property-testable, the four per-edge rules under one
  signature and tabled by policy in :data:`FORWARD_RULES`;
- :class:`EdgeFilter` -- one edge's decision plus its per-edge state
  (``last_sent``), dispatching to the pure functions by policy name;
- :class:`SourceTagger` -- the centralised policy's source-side
  examination (unique-tolerance list, per-tolerance last-sent values,
  Figure 11(a) check counting), answering with a :class:`SourceDecision`;
- :class:`Staircase` -- the last-sent state of a whole *ascending
  tolerance column* as runs of equal values, for the two places where
  updates meet many tolerances: a repository's modeled-client block
  (:meth:`Staircase.serve`, Eq. 3-or-Eq. 7 per client, one wired
  segment of the repository's log per call, at scoring) and the
  centralised source's unique tolerances (one per item in
  :class:`StaircaseTagger`, whose :meth:`~StaircaseTagger.tag` the
  engine calls once per item per control segment and the live source
  once per update).  Both rules are
  monotone in the tolerance, so a run is decided by its end elements
  and one ``bisect``, exactly; the production engine
  (:mod:`repro.engine.simulation`) runs the scalar rules, written
  inline, on its 1-4 wide edge groups.
  :func:`forward_distributed_many` is the elementwise numpy reference
  the staircase is property-tested against.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, DisseminationError

__all__ = [
    "MIN_TOLERANCE",
    "quantise_tolerance",
    "validate_tolerance",
    "forward_distributed",
    "forward_eq3_only",
    "forward_flooding",
    "forward_centralized",
    "forward_distributed_many",
    "tag_for_update",
    "FORWARD_RULES",
    "EdgeFilter",
    "SourceDecision",
    "SourceTagger",
    "Staircase",
    "StaircaseTagger",
    "FILTERED_POLICIES",
]

_TOLERANCE_DECIMALS = 9

#: Smallest admissible coherency tolerance: one quantisation quantum.
#: :func:`quantise_tolerance` rounds to ``_TOLERANCE_DECIMALS`` decimals,
#: so any positive tolerance below half a quantum (5e-10) silently
#: collapses to ``0.0`` -- and distinct sub-quantum tolerances merge
#: into a single centralised-policy bucket.  Tolerances at or above one
#: full quantum provably survive quantisation (``round`` is monotone and
#: ``round(1e-9, 9) == 1e-9 > 0``), so the build-time validation in
#: :mod:`repro.engine.config` / :mod:`repro.engine.builder` rejects
#: anything smaller.
MIN_TOLERANCE = 10.0 ** -_TOLERANCE_DECIMALS


def quantise_tolerance(c: float) -> float:
    """Collapse float noise so 'unique tolerance' is well defined.

    The centralised policy groups edges by their serving tolerance; two
    tolerances that differ only in float dust must land in one bucket.
    Callers must only pass validated tolerances (``>=``
    :data:`MIN_TOLERANCE`); below that the rounding quantum collapses
    the tolerance to ``0.0`` -- see :func:`validate_tolerance`.
    """
    return round(c, _TOLERANCE_DECIMALS)


def validate_tolerance(c: float, context: str = "tolerance") -> float:
    """Reject non-finite or sub-quantum coherency tolerances.

    Args:
        c: The candidate tolerance.
        context: Prefix for the error message (e.g. which repository and
            item the tolerance belongs to).

    Returns:
        ``c`` unchanged, for call-through convenience.

    Raises:
        ConfigurationError: when ``c`` is NaN/infinite or smaller than
            :data:`MIN_TOLERANCE` (the quantisation quantum), which
            would silently collapse it to ``0.0`` and merge it with
            every other sub-quantum tolerance.
    """
    if not math.isfinite(c):
        raise ConfigurationError(f"{context} must be finite, got {c!r}")
    if c < MIN_TOLERANCE:
        raise ConfigurationError(
            f"{context} must be >= {MIN_TOLERANCE:g} (the quantisation "
            f"quantum; smaller values collapse to 0.0), got {c!r}"
        )
    return c


def forward_distributed(
    value: float, last_sent: float, c_serve: float, parent_receive_c: float,
    tag: float | None = None,
) -> bool:
    """The distributed policy's Eq. (3)-or-Eq. (7) test.

    Forward when the dependent's tolerance is already violated
    (Eq. 3: ``|v - last_sent| > c_serve``) or its remaining slack has
    shrunk below the coherency at which this node itself receives the
    item (Eq. 7: ``c_serve - |v - last_sent| < parent_receive_c``), so
    the *next* update could violate the dependent's tolerance without
    this node ever seeing it.
    """
    deviation = abs(value - last_sent)
    if deviation > c_serve:  # Eq. (3)
        return True
    return c_serve - deviation < parent_receive_c  # Eq. (7)


def forward_eq3_only(
    value: float, last_sent: float, c_serve: float, parent_receive_c: float = 0.0,
    tag: float | None = None,
) -> bool:
    """Eq. (3) alone -- provably insufficient (the Figure 4 failure)."""
    return abs(value - last_sent) > c_serve


def forward_flooding(
    value: float, last_sent: float, c_serve: float = 0.0,
    parent_receive_c: float = 0.0, tag: float | None = None,
) -> bool:
    """Forward every *distinct* value (repeats carry no information)."""
    return value != last_sent


def forward_centralized(
    value: float, last_sent: float, c_serve: float, parent_receive_c: float,
    tag: float,
) -> bool:
    """Tag pruning: forward when the edge's tolerance is covered by the
    source's maximum-violated-tolerance tag (``c_serve <= tag``)."""
    return c_serve <= tag


#: Policy name -> its pure per-edge rule, called as ``rule(value,
#: last_sent, c_serve, parent_receive_c, tag)``: a caller binds its
#: policy's entry once and never branches on the policy again (each
#: rule ignores the operands its equation does not mention).
FORWARD_RULES = {
    "distributed": forward_distributed,
    "centralized": forward_centralized,
    "flooding": forward_flooding,
    "eq3_only": forward_eq3_only,
}

#: Policy names :class:`EdgeFilter` understands (the push policies).
FILTERED_POLICIES = tuple(FORWARD_RULES)


def forward_distributed_many(
    value: float,
    last_sent: "np.ndarray",
    c_serve: "np.ndarray",
    parent_receive_c,
) -> "np.ndarray":
    """Vectorised :func:`forward_distributed`: one update vs. N dependents.

    Elementwise bit-identical to the scalar test -- numpy float64
    ``abs``/compare/subtract agree exactly with Python-float arithmetic
    on the same operands.  ``parent_receive_c`` may be a scalar (all
    dependents hang off one serving node) or a parallel array.

    Kept on purpose although no engine calls it any more: it is the
    elementwise reference :meth:`Staircase.serve` is property-tested
    against, and the perf ledger's ``core.filtering.many4_ns`` /
    ``many1000_ns`` probes time it.
    """
    deviation = np.abs(value - last_sent)
    return (deviation > c_serve) | ((c_serve - deviation) < parent_receive_c)


def tag_for_update(
    value: float, unique_cs: list[float], last_sent: dict[float, float]
) -> float | None:
    """Return the largest violated tolerance, or None if none is violated.

    The centralised policy's source-side tagging rule; mutates nothing.
    """
    tag: float | None = None
    for c in unique_cs:
        if abs(value - last_sent[c]) > c:
            if tag is None or c > tag:
                tag = c
    return tag


class EdgeFilter:
    """One service edge's forwarding decision plus its per-edge state.

    The reference policy table
    (:class:`~repro.core.dissemination.policy.DisseminationPolicy`)
    keeps one per ``(parent, child, item)``; the live ``add_edge``
    copies one's rule, stored tolerance and initial value into an
    :class:`~repro.live.nodes.EdgeGroup`, so both planes cannot drift.
    """

    __slots__ = ("policy", "c_serve", "last_sent", "_rule")

    def __init__(self, policy: str, c_serve: float, initial_value: float) -> None:
        if policy not in FILTERED_POLICIES:
            raise ConfigurationError(
                f"unknown edge-filter policy {policy!r}; "
                f"choose from {list(FILTERED_POLICIES)}"
            )
        validate_tolerance(c_serve, "edge serving tolerance")
        self.policy = policy
        self.c_serve = (
            quantise_tolerance(c_serve) if policy == "centralized" else c_serve
        )
        self.last_sent = initial_value
        self._rule = FORWARD_RULES[policy]

    def decide(
        self, value: float, parent_receive_c: float = 0.0, tag: float | None = None
    ) -> bool:
        """Should this value be forwarded over the edge?

        Includes the state update on a positive decision.

        Raises:
            DisseminationError: for a centralised decision without a tag
                (every centralised update must carry one).
        """
        rule = self._rule  # a local: a slot misses CPython's method-call cache
        if tag is None and rule is forward_centralized:
            raise DisseminationError(
                "centralised dissemination requires a source tag on every update"
            )
        forward = rule(value, self.last_sent, self.c_serve, parent_receive_c, tag)
        if forward:
            self.last_sent = value
        return forward


@dataclass(frozen=True)
class SourceDecision:
    """Outcome of the source-side examination of one update.

    Attributes:
        disseminate: When false the update is dropped at the source
            (no dependent can need it).
        tag: Opaque value forwarded with the update (the centralised
            policy's maximum violated tolerance).
        checks: Number of source-side checks this examination cost;
            feeds the Figure 11(a) metric.
    """

    disseminate: bool
    tag: float | None = None
    checks: int = 0


class SourceTagger:
    """The centralised policy's source-side state and examination.

    Tracks, per item, the sorted list of unique serving tolerances that
    exist *anywhere* in the repository network and the last value
    disseminated for each.  :meth:`examine` implements Section 5.2's
    source algorithm: check every unique tolerance (the Figure 11(a)
    overhead), tag the update with the largest violated one, and mark
    the value as sent for every tolerance the tag covers.

    Run by the centralised :class:`~repro.core.dissemination.policy.
    DisseminationPolicy` (which feeds it from ``register_edge``), the
    reference oracle's table.

    Kept on purpose beside :class:`StaircaseTagger`: this dict-backed,
    one-test-per-tolerance form is the scalar oracle's, and the
    reference the staircase tagger -- the engine's and the live
    source's -- is property-tested against.
    """

    def __init__(self) -> None:
        # item -> sorted list of unique serving tolerances in the system.
        self._unique_cs: dict[int, list[float]] = {}
        # item -> {tolerance -> last value disseminated for it}.
        self._last_sent: dict[int, dict[float, float]] = {}
        # (item, tolerance) -> number of edges serving at it.
        self._edges: dict[tuple[int, float], int] = {}

    def add_tolerance(self, item_id: int, c: float, initial_value: float) -> None:
        """Declare one more edge serving ``item_id`` at (quantised)
        tolerance ``c``.

        Call once per edge: the tagger counts them, so the tolerance
        stays in the unique list until :meth:`remove_tolerance` has been
        called as many times.  Only the first edge at a tolerance
        installs ``initial_value`` as its last-sent value.
        """
        validate_tolerance(c, "source-tagger tolerance")
        c = quantise_tolerance(c)
        count = self._edges.get((item_id, c), 0)
        self._edges[(item_id, c)] = count + 1
        if not count:
            cs = self._unique_cs.setdefault(item_id, [])
            cs.append(c)
            cs.sort()
            self._last_sent.setdefault(item_id, {})[c] = initial_value

    def remove_tolerance(self, item_id: int, c: float) -> None:
        """One edge serving ``item_id`` at tolerance ``c`` is gone; the
        tolerance is forgotten when that was the last one.  Unknown
        pairs are ignored."""
        c = quantise_tolerance(c)
        count = self._edges.get((item_id, c), 0)
        if count > 1:
            self._edges[(item_id, c)] = count - 1
        elif count:
            del self._edges[(item_id, c)]
            self._unique_cs[item_id].remove(c)
            del self._last_sent[item_id][c]

    def unique_tolerances(self, item_id: int) -> list[float]:
        """The per-item state: ascending unique tolerances."""
        return list(self._unique_cs.get(item_id, []))

    def examine(self, item_id: int, value: float) -> SourceDecision:
        """Examine one fresh source update (Section 5.2's source step)."""
        cs = self._unique_cs.get(item_id)
        if not cs:
            return SourceDecision(disseminate=False, tag=None, checks=0)
        sent = self._last_sent[item_id]
        tag = tag_for_update(value, cs, sent)
        checks = len(cs)
        if tag is None:
            return SourceDecision(disseminate=False, tag=None, checks=checks)
        for c in cs:
            if c <= tag:
                sent[c] = value
            else:
                break
        return SourceDecision(disseminate=True, tag=tag, checks=checks)


class Staircase:
    """Last-sent values over an ascending tolerance column, held as runs.

    A flat last-sent column in ascending tolerance order is a staircase:
    a few runs of equal values.  The state is ``ends`` (each run's
    exclusive end index, strictly increasing, the last one ``len(cs)``)
    and ``vals`` (the value each run holds; adjacent runs differ, equal
    neighbours are merged).  Both rules run over it -- :meth:`serve`'s
    Eq. (3)-or-Eq. (7) and the source's tag test in
    :meth:`StaircaseTagger.tag` -- are monotone in the tolerance (at
    one held value, if a tolerance is served or violated, so is every
    smaller one), so an update can only ever move a *prefix* of a run,
    and a run is decided by its two end elements and at most one
    ``bisect`` instead of one test per element.

    ``cs`` is any ascending sequence ``bisect`` can index: the scoring
    pass (``ReconfigurationCore.serve_clients``, every plane's) passes a
    read-only ``memoryview`` of a client block (no per-client Python
    floats are kept alive) and one :meth:`serve` call per wired segment,
    :class:`StaircaseTagger` a plain list of unique tolerances, which it
    edits in place along with the runs.
    """

    __slots__ = ("cs", "ends", "vals")

    def __init__(self, cs, initial_value: float) -> None:
        self.cs = cs
        n = len(cs)
        self.ends = [n] if n else []
        self.vals = [initial_value] if n else []

    def serve(self, values, parent_receive_c: float) -> int:
        """Serve one wired segment: for each of ``values`` in order,
        apply :func:`forward_distributed` to every element and move the
        served ones to the value; returns how many were served in all.

        Per value, exactly ``count_nonzero(forward_distributed_many(value,
        flat, cs, parent_receive_c))`` followed by the masked store.  The
        rule is inlined as ``deviation > c or c - deviation <
        parent_receive_c`` -- :func:`forward_distributed`'s own IEEE
        operations, with one ``deviation`` per run.  It is monotone in
        ``c`` in IEEE arithmetic as well (a comparison, and ``c -
        deviation``, which rounds monotonically), so each run's served
        set is a prefix: one run whose widest tolerance is served is
        served whole, and otherwise "none" and "all" are read off a
        run's first and last element; in between, Eq. (7)'s real-number
        boundary ``deviation + parent_receive_c`` places the cut to
        within rounding, and the rule itself, asked about the elements
        either side, settles it.
        """
        cs = self.cs
        n = len(cs)
        if not n:
            return 0
        widest = cs[n - 1]
        ends, vals = self.ends, self.vals
        served = 0
        for value in values:
            if len(vals) == 1:
                deviation = abs(value - vals[0])
                if deviation > widest or widest - deviation < parent_receive_c:
                    served += n
                    vals = [value]
                    continue
            runs = zip(ends, vals)
            ends, vals = [], []
            start = 0
            for end, held in runs:
                deviation = abs(value - held)
                c = cs[start]
                if not (deviation > c or c - deviation < parent_receive_c):
                    cut = start
                elif deviation > (c := cs[end - 1]) or c - deviation < parent_receive_c:
                    cut = end
                else:
                    # cs[start] is served and cs[end - 1] is not, which
                    # bounds both walks.
                    cut = bisect_left(
                        cs, deviation + parent_receive_c, start + 1, end - 1
                    )
                    while (
                        deviation > (c := cs[cut]) or c - deviation < parent_receive_c
                    ):
                        cut += 1
                    while not (
                        deviation > (c := cs[cut - 1])
                        or c - deviation < parent_receive_c
                    ):
                        cut -= 1
                if cut > start:
                    served += cut - start
                    if vals and vals[-1] == value:
                        ends[-1] = cut
                    else:
                        ends.append(cut)
                        vals.append(value)
                if cut < end:
                    if vals and vals[-1] == held:
                        ends[-1] = end
                    else:
                        ends.append(end)
                        vals.append(held)
                start = end
        self.ends, self.vals = ends, vals
        return served


class StaircaseTagger:
    """The engine's and the live source's :class:`SourceTagger`: per item, a
    :class:`Staircase` over the ascending unique tolerances.

    Bit-identical to :meth:`SourceTagger.examine` value by value
    (property-tested against it), at one ``bisect`` per run of equal
    last-sent values instead of one test per tolerance.  Like the scalar
    tagger it counts the edges serving at each tolerance and starts
    empty: the first wiring and every reconfiguration call
    :meth:`add_tolerance` / :meth:`remove_tolerance` once per wired /
    torn-down edge.  A tolerance entering or leaving the unique list --
    rare -- splits, extends or merges the one run where it lands and
    shifts the later run ends by one.
    """

    def __init__(self) -> None:
        # item -> (staircase over the ascending quantised tolerances,
        # parallel serving-edge counts)
        self._state: dict[int, tuple[Staircase, list[int]]] = {}

    def add_tolerance(self, item_id: int, c: float, initial_value: float) -> float:
        """One more edge serves at (quantised) ``c``; a new tolerance
        starts from ``initial_value``, an existing entry keeps its
        last-sent value -- like :meth:`SourceTagger.add_tolerance`.
        Returns the quantised ``c``, which the edge serves at."""
        validate_tolerance(c, "source-tagger tolerance")
        c = quantise_tolerance(c)
        state = self._state.get(item_id)
        if state is None:
            state = self._state[item_id] = (Staircase([], initial_value), [])
        stairs, counts = state
        cs = stairs.cs
        i = bisect_left(cs, c)
        if i < len(cs) and cs[i] == c:
            counts[i] += 1
            return c
        cs.insert(i, c)
        counts.insert(i, 1)
        ends, vals = stairs.ends, stairs.vals
        # The run holding the tolerance that was at i (none past the end).
        r = bisect_right(ends, i)
        lo = ends[r - 1] if r else 0
        if r < len(ends) and vals[r] == initial_value:
            grow = r
        elif r and lo == i and vals[r - 1] == initial_value:
            grow = r - 1
        else:
            if lo < i:  # inside run r: split it around the newcomer
                ends.insert(r, i)
                vals.insert(r, vals[r])
                r += 1
            ends.insert(r, i)
            vals.insert(r, initial_value)
            grow = r
        for k in range(grow, len(ends)):
            ends[k] += 1
        return c

    def remove_tolerance(self, item_id: int, c: float) -> None:
        """One edge serving at ``c`` is gone; forget the tolerance when
        it was the last -- like :meth:`SourceTagger.remove_tolerance`.
        Unknown pairs are ignored."""
        c = quantise_tolerance(c)
        state = self._state.get(item_id)
        if state is None:
            return
        stairs, counts = state
        cs = stairs.cs
        i = bisect_left(cs, c)
        if i == len(cs) or cs[i] != c:
            return
        if counts[i] > 1:
            counts[i] -= 1
            return
        del cs[i], counts[i]
        ends, vals = stairs.ends, stairs.vals
        r = bisect_right(ends, i)
        if ends[r] - (ends[r - 1] if r else 0) == 1:
            # A run of its own: drop it, merging equal neighbours.
            del ends[r], vals[r]
            if 0 < r < len(ends) and vals[r - 1] == vals[r]:
                del ends[r - 1], vals[r - 1]
                r -= 1
        for k in range(r, len(ends)):
            ends[k] -= 1

    def unique_tolerances(self, item_id: int) -> list[float]:
        """Ascending unique tolerances, as :class:`SourceTagger` reports."""
        state = self._state.get(item_id)
        return [] if state is None else list(state[0].cs)

    def tag(self, item_id: int, values) -> tuple[int, list[int], list[float]]:
        """Section 5.2's source step for each of ``values`` in order:
        :meth:`SourceTagger.examine` value by value.  Returns the checks
        each value cost (the unique-tolerance count), the positions of
        the values the source disseminates and their tags; the rest
        violate no tolerance.

        Within a run the violated tolerances (``deviation > c``) are a
        prefix, so scanning runs from the widest tolerance down, the
        first run whose lowest tolerance is violated holds the tag, just
        below the ``bisect_left`` position of the deviation (``c <
        deviation`` is the rule's own comparison).  Everything up to the
        tag then holds the value: one run.
        """
        state = self._state.get(item_id)
        if state is None:
            return 0, [], []
        stairs = state[0]
        cs, ends, vals = stairs.cs, stairs.ends, stairs.vals
        sent: list[int] = []
        tags: list[float] = []
        runs = range(len(ends) - 1, -1, -1)  # widest first
        for position, value in enumerate(values):
            for k in runs:
                deviation = abs(value - vals[k])
                lo = ends[k - 1] if k else 0
                if cs[lo] < deviation:
                    hi = ends[k]
                    cut = bisect_left(cs, deviation, lo, hi)
                    # Runs below k are covered whole; run k too unless
                    # its tail survives the cut.
                    covered = k if cut < hi else k + 1
                    ends[:covered] = [cut]
                    vals[:covered] = [value]
                    if len(vals) > 1 and vals[1] == value:
                        del ends[0], vals[0]
                    runs = range(len(ends) - 1, -1, -1)
                    sent.append(position)
                    tags.append(cs[cut - 1])
                    break
        return len(cs), sent, tags
