"""The dynamic-data dissemination graph (``d3g``) and per-item trees.

For one data item the dissemination structure is a tree (the paper's
``d3t``) rooted at the source; the union over all items is a graph
(``d3g``) in which a node has one *push connection* per distinct child,
no matter how many items flow over it (Section 4).

Key invariants (validated by :meth:`DisseminationGraph.validate`):

- per item, parent pointers form a tree rooted at the source;
- along every path the *receive coherency* is non-increasing in
  stringency toward the leaves, i.e. ``c_parent <= c_child`` (Eq. 1);
- a node's receive coherency for an item is at least as stringent as its
  own requirement and every dependent's receive coherency;
- no node exceeds its offered degree of cooperation (in push
  connections).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TreeConstructionError

__all__ = ["NodeState", "DisseminationGraph", "TreeStats"]


@dataclass
class NodeState:
    """Per-node bookkeeping inside the ``d3g``.

    Attributes:
        node: Node id.
        level: Depth in the graph; the source is level 0.
        receive_c: ``item_id -> c`` at which this node *receives* each
            item (0.0 for every item at the source).  This is the node's
            serving capability: it can serve item ``x`` to anyone whose
            tolerance is >= ``receive_c[x]``.
        own_c: ``item_id -> c`` the node's own users require (empty at
            the source); ``receive_c`` is always <= ``own_c`` item-wise.
        parent_for: ``item_id -> parent node id`` for items received.
        children: ``child node id -> set of item_ids`` served to it.
    """

    node: int
    level: int
    receive_c: dict[int, float] = field(default_factory=dict)
    own_c: dict[int, float] = field(default_factory=dict)
    parent_for: dict[int, int] = field(default_factory=dict)
    children: dict[int, set[int]] = field(default_factory=dict)

    @property
    def n_dependents(self) -> int:
        """Number of push connections (distinct children)."""
        return len(self.children)


@dataclass
class TreeStats:
    """Shape statistics the paper reports for constructed graphs."""

    n_nodes: int
    n_levels: int
    max_depth: int
    mean_depth: float
    max_dependents: int
    mean_dependents: float
    diameter_hops: int


class DisseminationGraph:
    """The union of all per-item dissemination trees.

    Built incrementally by :class:`repro.core.lela.LelaBuilder`; consumed
    by the dissemination engine, which asks two questions:
    ``children_for_item(node, item)`` and ``receive_c(node, item)``.
    """

    def __init__(self, source: int) -> None:
        self.source = source
        self.nodes: dict[int, NodeState] = {
            source: NodeState(node=source, level=0)
        }
        self.levels: list[list[int]] = [[source]]

    # ------------------------------------------------------------------
    # Mutation (used by LeLA)
    # ------------------------------------------------------------------

    def add_node(self, node: int, level: int, own_c: dict[int, float]) -> NodeState:
        """Register a repository at ``level`` with its own requirements."""
        if node in self.nodes:
            raise TreeConstructionError(f"node {node} already in the graph")
        if level < 1:
            raise TreeConstructionError(
                f"repositories must join at level >= 1, got {level}"
            )
        if level > len(self.levels):
            raise TreeConstructionError(
                f"cannot create level {level}: deepest level is {len(self.levels) - 1}"
            )
        state = NodeState(node=node, level=level, own_c=dict(own_c))
        self.nodes[node] = state
        if level == len(self.levels):
            self.levels.append([])
        self.levels[level].append(node)
        return state

    def connect(self, parent: int, child: int, item_id: int, c: float) -> None:
        """Make ``parent`` serve ``item_id`` to ``child`` at coherency ``c``.

        The child's receive coherency for the item becomes ``c``; the
        caller is responsible for having ensured the parent can serve at
        that stringency (``parent.receive_c[item] <= c``).
        """
        parent_state = self.nodes[parent]
        child_state = self.nodes[child]
        if item_id in child_state.parent_for and child_state.parent_for[item_id] != parent:
            raise TreeConstructionError(
                f"item {item_id}: node {child} already served by "
                f"{child_state.parent_for[item_id]}, cannot also attach to {parent}"
            )
        parent_received = parent_state.receive_c.get(item_id)
        if parent != self.source:
            if parent_received is None:
                raise TreeConstructionError(
                    f"item {item_id}: parent {parent} does not receive it"
                )
            if parent_received > c:
                raise TreeConstructionError(
                    f"item {item_id}: parent {parent} receives at "
                    f"{parent_received} which is laxer than requested {c}"
                )
        child_state.parent_for[item_id] = parent
        child_state.receive_c[item_id] = c
        parent_state.children.setdefault(child, set()).add(item_id)

    def tighten(self, node: int, item_id: int, c: float) -> None:
        """Tighten the coherency at which ``node`` receives ``item_id``."""
        state = self.nodes[node]
        if item_id not in state.receive_c:
            raise TreeConstructionError(
                f"node {node} does not receive item {item_id}; cannot tighten"
            )
        if c < state.receive_c[item_id]:
            state.receive_c[item_id] = c

    # ------------------------------------------------------------------
    # Queries (used by the engine and experiments)
    # ------------------------------------------------------------------

    @property
    def repositories(self) -> list[int]:
        """All nodes except the source, in join order."""
        return [n for n in self.nodes if n != self.source]

    def n_dependents(self, node: int) -> int:
        """Push connections used by ``node``."""
        return self.nodes[node].n_dependents

    def receive_c(self, node: int, item_id: int) -> float:
        """Coherency at which ``node`` receives ``item_id``.

        The source holds every item natively at perfect coherency (0.0).
        """
        if node == self.source:
            return 0.0
        return self.nodes[node].receive_c[item_id]

    def children_for_item(self, node: int, item_id: int) -> list[tuple[int, float]]:
        """Dependents of ``node`` for one item, with their serve coherency.

        Returns ``[(child, c), ...]`` where ``c`` is the coherency the
        child must be kept within (its receive coherency for the item).
        """
        state = self.nodes[node]
        out = []
        for child, items in state.children.items():
            if item_id in items:
                out.append((child, self.nodes[child].receive_c[item_id]))
        return out

    def item_depth(self, node: int, item_id: int) -> int:
        """Hops from the source to ``node`` along the item's tree."""
        depth = 0
        current = node
        guard = len(self.nodes) + 1
        while current != self.source:
            current = self.nodes[current].parent_for[item_id]
            depth += 1
            guard -= 1
            if guard < 0:
                raise TreeConstructionError(
                    f"item {item_id}: cycle reaching source from node {node}"
                )
        return depth

    def stats(self) -> TreeStats:
        """Shape statistics over the whole ``d3g``."""
        repos = self.repositories
        depths = [self.nodes[n].level for n in repos]
        dependents = [self.nodes[n].n_dependents for n in self.nodes]
        # Diameter: deepest item-tree path (in dissemination hops).
        max_item_depth = 0
        for node, state in self.nodes.items():
            for item_id in state.receive_c:
                if node == self.source:
                    continue
                d = self.item_depth(node, item_id)
                if d > max_item_depth:
                    max_item_depth = d
        return TreeStats(
            n_nodes=len(self.nodes),
            n_levels=len(self.levels),
            max_depth=max(depths) if depths else 0,
            mean_depth=(sum(depths) / len(depths)) if depths else 0.0,
            max_dependents=max(dependents) if dependents else 0,
            mean_dependents=(sum(dependents) / len(dependents)) if dependents else 0.0,
            diameter_hops=max_item_depth,
        )

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self, max_dependents: dict[int, int] | None = None) -> None:
        """Check every structural invariant; raise on the first violation.

        Args:
            max_dependents: Optional per-node push-connection budgets to
                check capacity against (the offered degrees of
                cooperation).

        Raises:
            TreeConstructionError: describing the violated invariant.
        """
        for node, state in self.nodes.items():
            if node == self.source:
                continue
            for item_id, c in state.receive_c.items():
                own = state.own_c.get(item_id)
                if own is not None and c > own + 1e-12:
                    raise TreeConstructionError(
                        f"node {node} receives item {item_id} at {c} but "
                        f"its own requirement is stricter ({own})"
                    )
                parent = state.parent_for.get(item_id)
                if parent is None:
                    raise TreeConstructionError(
                        f"node {node} receives item {item_id} without a parent"
                    )
                parent_state = self.nodes[parent]
                if parent != self.source:
                    pc = parent_state.receive_c.get(item_id)
                    if pc is None:
                        raise TreeConstructionError(
                            f"item {item_id}: parent {parent} of {node} "
                            "does not itself receive the item"
                        )
                    if pc > c + 1e-12:
                        raise TreeConstructionError(
                            f"item {item_id}: Eq. (1) violated on edge "
                            f"{parent}->{node}: {pc} > {c}"
                        )
                if item_id not in parent_state.children.get(node, set()):
                    raise TreeConstructionError(
                        f"item {item_id}: edge {parent}->{node} not in "
                        "parent's child table"
                    )
                # Reachability: walking parents must hit the source.
                self.item_depth(node, item_id)
        if max_dependents is not None:
            for node, state in self.nodes.items():
                budget = max_dependents.get(node)
                if budget is not None and state.n_dependents > budget:
                    raise TreeConstructionError(
                        f"node {node} has {state.n_dependents} dependents, "
                        f"exceeding its offered degree {budget}"
                    )
