"""Message and check accounting (Section 6.2 and Figure 11).

Besides fidelity, the paper measures:

- the number of update messages sent system-wide (cost of coherency
  maintenance; Figure 11(b) shows the two exact policies send the same
  number), and
- the number of checks performed on incoming data values, especially at
  the source (Figure 11(a) shows the centralised policy does ~50% more
  at the source than the distributed policy does).

The modeled-client plane (``clients_per_repository``) gets separate
``client_checks``/``client_messages`` fields, mirroring the live layer's
convention of keeping client-serving cost out of the repository-plane
message economy (:mod:`repro.live.nodes` does the same with its
``client_messages`` attribute).

:class:`ArrayCounters` is the flat accumulator the engine
(:mod:`repro.engine.simulation`) uses on its hot path: per-node tallies
live in dense lists instead of dicts, and are folded into an ordinary
:class:`CostCounters` once at the end of the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CostCounters", "ArrayCounters"]


@dataclass
class CostCounters:
    """Mutable counters threaded through one simulation run."""

    messages: int = 0
    source_checks: int = 0
    repository_checks: int = 0
    source_messages: int = 0
    deliveries: int = 0
    drops: int = 0
    reconfigurations: int = 0
    edges_added: int = 0
    edges_removed: int = 0
    client_checks: int = 0
    client_messages: int = 0
    resyncs: int = 0
    resync_checks: int = 0
    resync_messages: int = 0
    per_node_messages: dict[int, int] = field(default_factory=dict)
    per_node_checks: dict[int, int] = field(default_factory=dict)

    @property
    def total_checks(self) -> int:
        """All coherency checks performed anywhere in the system."""
        return self.source_checks + self.repository_checks

    @property
    def resubscriptions(self) -> int:
        """Service edges (re)negotiated by churn reconfigurations.

        This is the sum of :attr:`ReconfigurationDiff.cost
        <repro.core.dynamics.ReconfigurationDiff.cost>` over every churn
        event applied during the run: each added or removed edge is one
        subscription a real deployment would have to (re)negotiate.
        """
        return self.edges_added + self.edges_removed

    def record_check(self, node: int, is_source: bool, count: int = 1) -> None:
        """Count ``count`` coherency checks at ``node``."""
        if is_source:
            self.source_checks += count
        else:
            self.repository_checks += count
        self.per_node_checks[node] = self.per_node_checks.get(node, 0) + count

    def record_message(self, sender: int, is_source: bool, count: int = 1) -> None:
        """Count ``count`` update messages leaving ``sender``."""
        self.messages += count
        if is_source:
            self.source_messages += count
        self.per_node_messages[sender] = self.per_node_messages.get(sender, 0) + count

    def record_delivery(self) -> None:
        """Count one message arriving at a repository."""
        self.deliveries += 1

    def record_drop(self) -> None:
        """Count one message lost in transit (failure injection or a
        delivery toward a repository that departed while it was in
        flight)."""
        self.drops += 1

    def record_reconfiguration(self, n_added: int, n_removed: int) -> None:
        """Count one churn reconfiguration and its edge-level cost."""
        self.reconfigurations += 1
        self.edges_added += n_added
        self.edges_removed += n_removed

    def record_resync(self, checks: int, messages: int) -> None:
        """Count one anti-entropy resync of a recovering repository.

        ``checks`` per-item comparisons were made against the live
        parent (the setdiscovery-style discovery round) and ``messages``
        stale copies actually transferred -- the missed update-set, so
        ``messages <= checks`` always, versus ``checks`` transfers for a
        full-state sync.  Kept out of the repository-plane ``messages``
        economy, like reconfiguration cost.
        """
        self.resyncs += 1
        self.resync_checks += checks
        self.resync_messages += messages

    def record_client_serving(self, checks: int, messages: int) -> None:
        """Count one delivery's worth of modeled-client filtering.

        ``checks`` filter evaluations were performed (one per attached
        client) and ``messages`` of them forwarded.  Kept out of the
        repository-plane ``messages``/``*_checks`` economy, matching the
        live layer's separate client accounting.
        """
        self.client_checks += checks
        self.client_messages += messages

    def merge(self, other: "CostCounters") -> None:
        """Fold another run-fragment's counters into this one.

        The fleet supervisor merges per-worker counters with this:
        every scalar field adds, the per-node dicts union-add.  Merging
        is commutative and associative, so the fleet total is
        independent of worker arrival order.
        """
        self.messages += other.messages
        self.source_checks += other.source_checks
        self.repository_checks += other.repository_checks
        self.source_messages += other.source_messages
        self.deliveries += other.deliveries
        self.drops += other.drops
        self.reconfigurations += other.reconfigurations
        self.edges_added += other.edges_added
        self.edges_removed += other.edges_removed
        self.client_checks += other.client_checks
        self.client_messages += other.client_messages
        self.resyncs += other.resyncs
        self.resync_checks += other.resync_checks
        self.resync_messages += other.resync_messages
        for node, count in other.per_node_messages.items():
            self.per_node_messages[node] = (
                self.per_node_messages.get(node, 0) + count
            )
        for node, count in other.per_node_checks.items():
            self.per_node_checks[node] = self.per_node_checks.get(node, 0) + count

    def busiest_sender(self) -> tuple[int, int] | None:
        """(node, messages) for the node that sent the most messages."""
        if not self.per_node_messages:
            return None
        node = max(self.per_node_messages, key=lambda n: self.per_node_messages[n])
        return node, self.per_node_messages[node]


class ArrayCounters:
    """Flat accumulator for the batch kernel's hot path.

    The scalar engine updates :class:`CostCounters` dicts once per
    (update, dependent) pair.  The batch kernel's drain loop instead
    bumps the two dense per-node lists held here (indexed by node id; a
    list element ``+=`` costs a sixth of a numpy one) once per edge
    group, keeps the remaining totals in its own locals and stores them
    here when the loop ends.  :meth:`to_cost_counters` then folds
    everything into a :class:`CostCounters` -- equal, field for field,
    to what the scalar engine would have produced (dict equality is
    insertion-order-insensitive, so sparsifying at the end is safe).
    Every check and message is tallied at its node, so the system-wide
    totals are the lists' sums and only the source's share is kept
    apart.
    """

    __slots__ = (
        "source_checks",
        "source_messages",
        "deliveries",
        "drops",
        "client_checks",
        "client_messages",
        "node_messages",
        "node_checks",
    )

    def __init__(self, n_nodes: int) -> None:
        self.source_checks = 0
        self.source_messages = 0
        self.deliveries = 0
        self.drops = 0
        self.client_checks = 0
        self.client_messages = 0
        self.node_messages = [0] * n_nodes
        self.node_checks = [0] * n_nodes

    def message_counts(self) -> dict[int, int]:
        """Messages sent so far per node, nodes that sent none left out
        -- what ``CostCounters.per_node_messages`` holds."""
        return {node: count for node, count in enumerate(self.node_messages) if count}

    def to_cost_counters(self) -> CostCounters:
        """Fold into the dict-backed form the rest of the repo consumes."""
        return CostCounters(
            messages=sum(self.node_messages),
            source_checks=self.source_checks,
            repository_checks=sum(self.node_checks) - self.source_checks,
            source_messages=self.source_messages,
            deliveries=self.deliveries,
            drops=self.drops,
            client_checks=self.client_checks,
            client_messages=self.client_messages,
            per_node_messages=self.message_counts(),
            per_node_checks={
                node: count for node, count in enumerate(self.node_checks) if count
            },
        )
