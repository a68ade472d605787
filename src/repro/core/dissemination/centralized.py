"""The centralised (source-based) dissemination policy (Section 5.2).

The source maintains the list of all *unique* coherency tolerances that
exist for each item anywhere in the repository network, together with the
last value disseminated for each tolerance.  On a fresh update it checks
every unique tolerance (these checks are the Figure 11(a) overhead),
finds the violated ones, tags the update with the *largest* violated
tolerance ``c_max``, records the value as last-sent for every tolerance
``<= c_max``, and pushes the tagged update into the tree.

A repository receiving a tagged update forwards it to each dependent that
(i) is interested in the item and (ii) has a serving coherency ``<=`` the
tag.  Because Eq. (1) makes coherencies non-increasing in stringency
toward the leaves, the tag cleanly prunes whole subtrees.

The source-side state machine lives in
:class:`~repro.core.dissemination.filtering.SourceTagger` and the tag
pruning test in :func:`~repro.core.dissemination.filtering.
forward_centralized`, shared verbatim with the live
:class:`~repro.live.nodes.SourceNode` / repository servers.
"""

from __future__ import annotations

from repro.errors import DisseminationError
from repro.core.dissemination.base import (
    DisseminationPolicy,
    ForwardDecision,
    SourceDecision,
)
from repro.core.dissemination.filtering import (
    SourceTagger,
    forward_centralized,
    quantise_tolerance,
)
from repro.core.dissemination.filtering import tag_for_update  # noqa: F401  (re-export)

__all__ = ["CentralizedPolicy", "tag_for_update"]


class CentralizedPolicy(DisseminationPolicy):
    """Source-based dissemination with tolerance tagging."""

    name = "centralized"

    def __init__(self) -> None:
        self._tagger = SourceTagger()
        self._edge_c: dict[tuple[int, int, int], float] = {}

    def register_edge(
        self, parent: int, child: int, item_id: int, c_serve: float, initial_value: float
    ) -> None:
        self.unregister_edge(parent, child, item_id)  # re-registration replaces
        c = quantise_tolerance(c_serve)
        self._edge_c[(parent, child, item_id)] = c
        self._tagger.add_tolerance(item_id, c, initial_value)

    def unregister_edge(self, parent: int, child: int, item_id: int) -> None:
        c = self._edge_c.pop((parent, child, item_id), None)
        if c is not None:
            # The tagger counts edges per tolerance: the source's unique
            # list drops it only when no edge anywhere still serves at it.
            self._tagger.remove_tolerance(item_id, c)

    def unique_tolerances(self, item_id: int) -> list[float]:
        """The source's per-item state (ascending unique tolerances)."""
        return self._tagger.unique_tolerances(item_id)

    def at_source(self, item_id: int, value: float) -> SourceDecision:
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
        if tag is None:
            raise DisseminationError(
                "centralised dissemination requires a source tag on every update"
            )
        try:
            c_serve = self._edge_c[(parent, child, item_id)]
        except KeyError:
            raise DisseminationError(
                f"edge {parent}->{child} for item {item_id} was never registered"
            ) from None
        # No last-sent state here: the rule reads the tolerance and the tag.
        forward = forward_centralized(value, value, c_serve, parent_receive_c, tag)
        return ForwardDecision(forward=forward)
