"""Update-dissemination policies (Section 5).

A policy decides, for every update flowing through a node, which of the
node's dependents must receive it.  There is one algorithm -- per
dependent, apply the policy's rule -- and four rules
(:data:`~repro.core.dissemination.filtering.FORWARD_RULES`), so there is
one :class:`~repro.core.dissemination.policy.DisseminationPolicy`,
built by name with :func:`~repro.core.dissemination.policy.make_policy`:

``distributed`` -- the repository-based approach (Section 5.1).
    Each node keeps, per dependent and item, the last value it forwarded
    to that dependent.  An incoming update ``v`` is forwarded to
    dependent ``q`` (serving coherency ``c_q``) when either

    - Eq. (3):  ``|v - last_sent(q)| > c_q``  (q's tolerance is
      violated), or
    - Eq. (7):  ``c_q - |v - last_sent(q)| < c_p``  (q's remaining slack
      has shrunk below ``c_p``, the coherency at which this node itself
      receives the item -- so the *next* update could violate q's
      tolerance without this node ever seeing it).

    At the source ``c_p = 0`` and Eq. (7) degenerates to Eq. (3).  100%
    fidelity under zero delays.

``eq3_only`` -- Eq. (3) without the Eq. (7) guard; provably insufficient.
    Forwarding only when the dependent's own tolerance is violated lets
    intermediate repositories swallow updates their dependents will
    later need: the "missed updates" problem of Figure 4.  A source
    sequence 1 -> 1.2 -> 1.4 -> 1.5 with ``c_p = 0.3, c_q = 0.5``:
    dropping the 1.4 at P makes Q miss the 1.5 forever, while Eq. (7)
    forwards the 1.4 and restores 100% fidelity.  The policy exists so
    the reproduction can *demonstrate* that failure
    (``tests/core/test_missed_updates.py`` drives the scenario through
    it; property tests show it fails the theorem ``distributed``
    satisfies).

``centralized`` -- the source-based approach (Section 5.2).
    The source maintains the list of all *unique* coherency tolerances
    that exist for each item anywhere in the repository network,
    together with the last value disseminated for each.  On a fresh
    update it checks every unique tolerance (these checks are the
    Figure 11(a) overhead), finds the violated ones, tags the update
    with the *largest* violated tolerance ``c_max``, records the value
    as last-sent for every tolerance ``<= c_max``, and pushes the tagged
    update into the tree.  A repository receiving a tagged update
    forwards it to each dependent that (i) is interested in the item and
    (ii) has a serving coherency ``<=`` the tag.  Because Eq. (1) makes
    coherencies non-increasing in stringency toward the leaves, the tag
    cleanly prunes whole subtrees.  Also 100% fidelity under zero
    delays, at the cost of more source-side checks.  The source-side
    state machine is :class:`~repro.core.dissemination.filtering.
    SourceTagger`, shared verbatim with the live
    :class:`~repro.live.nodes.SourceNode`.

``flooding`` -- the "all updates" baseline (Figure 8).
    Every distinct source value is pushed to every repository interested
    in the item, ignoring coherency tolerances (identical consecutive
    values carry no information even for flooding -- the paper's traces
    are *changes* -- so pure repeats are skipped).  The paper emulates
    this with a maximally stringent tolerance (its T=100% curve); it is
    implemented directly here.  Filtering's benefit is the gap between
    this policy and the coherency-aware ones: flooding wastes network
    and computational resources, and the induced queueing *reduces*
    fidelity.
"""

from repro.core.dissemination.filtering import EdgeFilter, SourceTagger
from repro.core.dissemination.policy import (
    DisseminationPolicy,
    ForwardDecision,
    available_policies,
    make_policy,
)

__all__ = [
    "DisseminationPolicy",
    "ForwardDecision",
    "EdgeFilter",
    "SourceTagger",
    "make_policy",
    "available_policies",
]
