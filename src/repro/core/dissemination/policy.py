"""The dissemination policy as one table of per-edge filters.

The per-event reference engine (:mod:`repro.engine.oracle`) drives a
policy with two hooks: :meth:`DisseminationPolicy.at_source` runs once
per source update and may veto dissemination entirely (the centralised
policy's tagging), and :meth:`DisseminationPolicy.decide` runs per
(node, dependent) pair and answers "does this dependent need this
update?".  Updates carry an opaque ``tag`` produced at the source
(``None`` for policies that do not use one), threaded through unchanged
as the update flows down the tree -- the paper's centralised approach
piggybacks the maximum violated tolerance on the message.

One class serves all four policies because there is one algorithm: the
name picks the per-edge rule (an :class:`~repro.core.dissemination.
filtering.EdgeFilter` bound to its :data:`~repro.core.dissemination.
filtering.FORWARD_RULES` entry) and whether a
:class:`~repro.core.dissemination.filtering.SourceTagger` examines
updates at the source.  The rule, the tolerance quantisation, the "tag
required" error and the last-sent store are the filter's; this module
only keys filters by ``(parent, child, item)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.dissemination.filtering import (
    FORWARD_RULES,
    EdgeFilter,
    SourceDecision,
    SourceTagger,
)
from repro.errors import ConfigurationError, DisseminationError

__all__ = [
    "ForwardDecision",
    "DisseminationPolicy",
    "make_policy",
    "available_policies",
]


@dataclass(frozen=True)
class ForwardDecision:
    """Outcome of one (node, dependent) coherency check."""

    forward: bool
    checks: int = 1


class DisseminationPolicy:
    """Decides which dependents receive which updates.

    Args:
        name: One of :func:`available_policies`.

    Raises:
        ConfigurationError: on an unknown policy name.
    """

    def __init__(self, name: str) -> None:
        if name not in FORWARD_RULES:
            raise ConfigurationError(
                f"unknown dissemination policy {name!r}; "
                f"choose from {available_policies()}"
            )
        self.name = name
        self._filters: dict[tuple, EdgeFilter] = {}
        self._tagger = SourceTagger() if name == "centralized" else None

    def register_edge(
        self, parent: int, child: int, item_id: int, c_serve: float, initial_value: float
    ) -> None:
        """Declare the service edge ``parent -> child`` for one item
        (again replaces it): ``child`` must be kept within ``c_serve``,
        its receive coherency, and like every copy in the system starts
        coherent at ``initial_value``."""
        self.unregister_edge(parent, child, item_id)
        edge = EdgeFilter(self.name, c_serve, initial_value)
        self._filters[(parent, child, item_id)] = edge
        if self._tagger is not None:
            self._tagger.add_tolerance(item_id, edge.c_serve, initial_value)

    def unregister_edge(self, parent: int, child: int, item_id: int) -> None:
        """Tear down one service edge at reconfiguration time, forgetting
        its per-edge state so it can later be re-registered (possibly at
        a different coherency).  Unknown edges are ignored."""
        edge = self._filters.pop((parent, child, item_id), None)
        if edge is not None and self._tagger is not None:
            # The tagger counts edges per tolerance: the source's unique
            # list drops it only when no edge anywhere still serves at it.
            self._tagger.remove_tolerance(item_id, edge.c_serve)

    def unique_tolerances(self, item_id: int) -> list[float]:
        """The centralised source's per-item state (ascending unique
        tolerances); empty for the policies that keep none."""
        return [] if self._tagger is None else self._tagger.unique_tolerances(item_id)

    def at_source(self, item_id: int, value: float) -> SourceDecision:
        """Examine a fresh source update before any dissemination.  Only
        the centralised source has global state to examine it with; the
        others treat their dependents exactly like any repository does."""
        if self._tagger is None:
            return SourceDecision(disseminate=True)
        return self._tagger.examine(item_id, value)

    def decide(
        self,
        parent: int,
        child: int,
        item_id: int,
        value: float,
        parent_receive_c: float,
        tag: float | None,
    ) -> ForwardDecision:
        """Does ``child`` need ``value``, given it last got what we sent
        it?  ``parent_receive_c`` is the coherency at which ``parent``
        itself receives the item (0 at the source) -- the ``c_p`` of
        Eq. (7); ``tag`` is the source tag threaded with this update.

        Raises:
            DisseminationError: for an edge that was never registered,
                or a centralised decision without a tag.
        """
        try:
            edge = self._filters[(parent, child, item_id)]
        except KeyError:
            raise DisseminationError(
                f"edge {parent}->{child} for item {item_id} was never registered"
            ) from None
        return ForwardDecision(forward=edge.decide(value, parent_receive_c, tag))


def available_policies() -> list[str]:
    """Names accepted by :func:`make_policy`."""
    return sorted(FORWARD_RULES)


def make_policy(name: str) -> DisseminationPolicy:
    """A fresh policy by (case-insensitive) name.

    Raises:
        ConfigurationError: on an unknown policy name.
    """
    return DisseminationPolicy(name.lower())
