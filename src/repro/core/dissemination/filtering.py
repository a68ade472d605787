"""The pure per-edge forwarding decisions, shared by sim and live code.

Every dissemination policy ultimately answers one question per
(update, service edge): *should this update be forwarded to dependent
R for item x?*  This module states the answers once, as pure functions,
so that

- the reference policy table (:mod:`repro.core.dissemination.policy`),
- the production engine's flat loop (:mod:`repro.engine.simulation`) and
- the live nodes' edge groups (:mod:`repro.live.nodes`)

share **one** code path, and the simulator can be cross-validated
against a running network (the ``live_crosscheck`` experiment) without
any risk of the two re-implementing the paper's equations differently.

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
  one update meets many tolerances: a repository's modeled-client block
  (:meth:`Staircase.serve`, Eq. 3-or-Eq. 7 per client) and the
  centralised source's unique tolerances (:meth:`Staircase.tag`,
  wrapped per item by :class:`StaircaseTagger`, which the engine and
  the live source run).  Both rules are
  monotone in the tolerance, so a run is decided by its end elements
  and one ``bisect``, exactly; the production engine
  (:mod:`repro.engine.simulation`) uses it there and the scalar
  functions on its 1-4 wide edge groups.
  :func:`forward_distributed_many` is the elementwise numpy reference
  the staircase is property-tested against.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
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
    "PASS_THROUGH",
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


#: What every source but the centralised one decides, for free: it has
#: no source-global state, so the update goes to the root's dependents
#: like any other node's.
PASS_THROUGH = SourceDecision(disseminate=True, tag=None, checks=0)


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
    neighbours are merged).  Both rules below are monotone in the
    tolerance -- at one held value, if a tolerance is served (violated),
    so is every smaller one -- so an update can only ever move a
    *prefix* of a run, and a run is decided by its two end elements and
    at most one ``bisect`` instead of one test per element.

    ``cs`` is any ascending sequence ``bisect`` can index: the batch
    engine passes a read-only ``memoryview`` of a client block (no
    per-client Python floats are kept alive), :class:`StaircaseTagger` a
    plain list of unique tolerances.
    """

    __slots__ = ("cs", "ends", "vals")

    def __init__(self, cs, initial_value: float) -> None:
        self.cs = cs
        n = len(cs)
        self.ends = [n] if n else []
        self.vals = [initial_value] if n else []

    @classmethod
    def compress(cls, cs, last_sent) -> "Staircase":
        """The staircase of a flat last-sent column parallel to ``cs``."""
        stairs = cls(cs, 0.0)
        ends, vals = [], []
        for end, held in enumerate(last_sent, start=1):
            if vals and vals[-1] == held:
                ends[-1] = end
            else:
                ends.append(end)
                vals.append(held)
        stairs.ends, stairs.vals = ends, vals
        return stairs

    def expand(self) -> list[float]:
        """The flat last-sent column, one value per tolerance."""
        flat: list[float] = []
        start = 0
        for end, held in zip(self.ends, self.vals):
            flat.extend([held] * (end - start))
            start = end
        return flat

    def serve(self, value: float, parent_receive_c: float) -> int:
        """Apply :func:`forward_distributed` to every element and move
        the served ones to ``value``; returns how many were served.

        Exactly ``count_nonzero(forward_distributed_many(value, flat,
        cs, parent_receive_c))`` followed by the masked store.  The rule
        is monotone in ``c_serve`` in IEEE arithmetic as well (a
        comparison, and ``c - deviation``, which rounds monotonically),
        so each run's served set is a prefix.  "None" and "all" are read
        off the run's first and last element; otherwise Eq. (7)'s
        real-number boundary ``deviation + parent_receive_c`` places the
        cut to within rounding, and the rule itself, asked about the
        elements either side, settles it.
        """
        cs = self.cs
        ends: list[int] = []
        vals: list[float] = []
        served = start = 0
        for end, held in zip(self.ends, self.vals):
            if not forward_distributed(value, held, cs[start], parent_receive_c):
                cut = start
            elif forward_distributed(value, held, cs[end - 1], parent_receive_c):
                cut = end
            else:
                # cs[start] is served and cs[end - 1] is not, which
                # bounds both walks.
                cut = bisect_left(
                    cs, abs(value - held) + parent_receive_c, start + 1, end - 1
                )
                while forward_distributed(value, held, cs[cut], parent_receive_c):
                    cut += 1
                while not forward_distributed(
                    value, held, cs[cut - 1], parent_receive_c
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

    def tag(self, value: float) -> float | None:
        """Section 5.2's source step: the largest violated tolerance
        (``None`` when none is), after marking ``value`` sent for every
        tolerance it covers -- :func:`tag_for_update` plus
        :meth:`SourceTagger.examine`'s store.

        Within a run the violated tolerances (``deviation > c``) are a
        prefix, so scanning runs from the widest tolerance down, the
        first run whose lowest tolerance is violated holds the tag, just
        below the ``bisect_left`` position of the deviation (``c <
        deviation`` is the rule's own comparison).  Everything up to the
        tag then holds ``value``: one run.
        """
        cs, ends, vals = self.cs, self.ends, self.vals
        for k in range(len(ends) - 1, -1, -1):
            lo = ends[k - 1] if k else 0
            deviation = abs(value - vals[k])
            if cs[lo] < deviation:
                hi = ends[k]
                cut = bisect_left(cs, deviation, lo, hi)
                # Runs below k are covered whole; run k too unless its
                # tail survives the cut.
                covered = k if cut < hi else k + 1
                ends[:covered] = [cut]
                vals[:covered] = [value]
                if len(vals) > 1 and vals[1] == value:
                    del ends[0], vals[0]
                return cs[cut - 1]
        return None


_NO_TOLERANCES = SourceDecision(disseminate=False, tag=None, checks=0)


class StaircaseTagger:
    """The engine's and the live source's :class:`SourceTagger`: per item, a
    :class:`Staircase` over the ascending unique tolerances.

    Bit-identical to :meth:`SourceTagger.examine` (property-tested
    against it), at one ``bisect`` per run of equal last-sent values
    instead of one test per tolerance.  Like the scalar tagger it counts
    the edges serving at each tolerance, so reconfigurations call
    :meth:`add_tolerance` / :meth:`remove_tolerance` once per wired /
    torn-down edge and the unique list follows; a tolerance entering or
    leaving the list -- rare -- expands the staircase to the flat
    column, edits it and compresses it again.
    """

    def __init__(self) -> None:
        # item -> (staircase over the ascending quantised tolerances,
        # parallel serving-edge counts, the "nothing violated" decision:
        # its checks -- the tolerance count -- is all that can change)
        self._state: dict[int, tuple[Staircase, list[int], SourceDecision]] = {}

    def _install(self, item_id: int, stairs: Staircase, counts: list[int]) -> None:
        self._state[item_id] = (
            stairs,
            counts,
            SourceDecision(disseminate=False, tag=None, checks=len(counts)),
        )

    def add_item(
        self, item_id: int, tolerances: list[float], initial_value: float
    ) -> None:
        """Install one item from its edges' tolerances, one entry per
        edge in any order (repeats are what gets counted)."""
        counts = Counter(
            quantise_tolerance(validate_tolerance(c, "source-tagger tolerance"))
            for c in tolerances
        )
        cs = sorted(counts)
        self._install(item_id, Staircase(cs, initial_value), [counts[c] for c in cs])

    def add_tolerance(self, item_id: int, c: float, initial_value: float) -> None:
        """One more edge serves at (quantised) ``c``; a new tolerance
        starts from ``initial_value``, an existing entry keeps its
        last-sent value -- like :meth:`SourceTagger.add_tolerance`."""
        validate_tolerance(c, "source-tagger tolerance")
        c = quantise_tolerance(c)
        if item_id not in self._state:
            self._install(item_id, Staircase([], initial_value), [])
        stairs, counts, _quiet = self._state[item_id]
        cs = stairs.cs
        i = bisect_left(cs, c)
        if i < len(cs) and cs[i] == c:
            counts[i] += 1
            return
        last_sent = stairs.expand()
        cs.insert(i, c)
        last_sent.insert(i, initial_value)
        counts.insert(i, 1)
        self._install(item_id, Staircase.compress(cs, last_sent), counts)

    def remove_tolerance(self, item_id: int, c: float) -> None:
        """One edge serving at ``c`` is gone; forget the tolerance when
        it was the last -- like :meth:`SourceTagger.remove_tolerance`.
        Unknown pairs are ignored."""
        c = quantise_tolerance(c)
        state = self._state.get(item_id)
        if state is None:
            return
        stairs, counts, _quiet = state
        cs = stairs.cs
        i = bisect_left(cs, c)
        if i == len(cs) or cs[i] != c:
            return
        if counts[i] > 1:
            counts[i] -= 1
            return
        last_sent = stairs.expand()
        del cs[i], last_sent[i], counts[i]
        self._install(item_id, Staircase.compress(cs, last_sent), counts)

    def unique_tolerances(self, item_id: int) -> list[float]:
        """Ascending unique tolerances, as :class:`SourceTagger` reports."""
        state = self._state.get(item_id)
        return [] if state is None else list(state[0].cs)

    def examine(self, item_id: int, value: float) -> SourceDecision:
        """:meth:`SourceTagger.examine` (Section 5.2 source step)."""
        state = self._state.get(item_id)
        if state is None:
            return _NO_TOLERANCES
        stairs, _counts, quiet = state
        tag = stairs.tag(value)
        if tag is None:
            return quiet
        return SourceDecision(disseminate=True, tag=tag, checks=quiet.checks)
