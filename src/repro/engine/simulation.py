"""The dissemination simulation: one engine, one flat loop.

Semantics (DESIGN.md §5):

- Source updates fire at trace timestamps; only *changes* are simulated
  (polling repeats carry no information).  The traces themselves come
  from the config's workload (:mod:`repro.workloads`), so the same
  engine serves stationary Table 1 dynamics, flash crowds, diurnal
  cycles, or replayed recordings unchanged.
- When an update reaches a node, the node's local copy refreshes
  immediately, then the node checks each dependent registered for the
  item.  Checks are instantaneous bookkeeping; a *forwarded* copy costs
  ``comp_delay`` of serialised server time at the node (the paper's
  12.5 ms covers the check plus preparing the transmission) before it
  leaves, then travels the precomputed end-to-end network delay.
- The per-node serialisation is what makes a node with many dependents a
  bottleneck -- the mechanism behind the U-curve's rising arm and the
  no-cooperation saturation of Figures 5/6.

:class:`VectorizedSimulation` is **the** engine -- what
:func:`make_simulation` returns for every run.  Its sibling under
:class:`SimulationBase` (the setup, the counters, the reconfiguration
core and the delivery logs) is the per-event **reference** in
:mod:`repro.engine.oracle` -- one ``Event`` object, one callback
dispatch and one policy-object call per message -- which
``kernel="scalar"`` reaches, for debugging;
``tests/engine/test_vectorized_golden.py`` pins bit-identical results
(loss, per-pair losses, every counter field) across policies, workloads
and reconfiguration sources.

The engine's hot path touches only flat lists, tuples and ints:

- **Edge groups.**  Each (node, item) pair that sends or receives
  becomes one integer group id, made as the reconfiguration core wires
  the run's graph through :meth:`~VectorizedSimulation.wire`.
  A group stores its dependents as four parallel *Python lists* --
  child group ids, serving tolerances (quantised for the centralised
  policy, exactly as
  :class:`~repro.core.dissemination.filtering.EdgeFilter` stores them),
  per-edge last-sent values, and precomputed end-to-end delays -- plus
  the scalars the decision needs (the node's own receive coherency,
  whether it is the source).  The paper's case for a small degree of
  cooperation makes a group 1-4 wide, where one numpy call costs ~20
  scalar decisions; lists win or tie at every width the repo can
  produce (see ``docs/architecture/vectorized-kernel.md``).
- **One loop.**  :meth:`VectorizedSimulation.run` is the whole hot
  path: a source update and a delivery do their own bookkeeping and
  fall through to one inline *edge-group step*, a single pass over the
  group's columns that decides each dependent, chains the node's FIFO
  departures (the reference station's own float additions, on a
  per-node list) and pushes each surviving message.  The decision is
  the policy's rule written inline: ``c <= tag`` for the centralised
  policy, and for the three last-sent policies one Eq. (3)-or-Eq. (7)
  test over the operands ``wire`` stores for the policy (Eq. (3) alone
  is the pair at a zero receive coherency, flooding is Eq. (3) at a
  zero tolerance).  An observed run also calls the policy's entry in
  :data:`~repro.core.dissemination.filtering.FORWARD_RULES` -- the very
  functions the reference policy table and the live nodes call -- for
  its spans, so a traced run cross-checks the inline test.  On the
  paper's base case the loop itself calls only C (``heappush``,
  ``heappop``, ``abs``, ``list.append``): the 0.05 Python-level calls
  per event left are the scoring's and the tree statistics' after it.
- **Source segments.**  No tolerance comes or goes between two control
  instants, so the source updates are taken one *control segment* at a
  time (:meth:`~VectorizedSimulation._segment`): the centralised source
  tags each item's in one ``StaircaseTagger.tag`` pass, and only the
  updates it disseminates reach the loop.
- **Events.**  The loop merges the precomputed source timeline (a list
  and a cursor) with a heap of in-flight delivery tuples itself -- no
  per-message Event objects, no callback dispatch, no generator: ties
  go to the source update, then to push order (a local FIFO counter),
  as in the reference's queue, and a push keeps
  :meth:`~repro.sim.kernel.BatchKernel.push`'s NaN/past guard as one
  inline comparison.  A copy sent to a pair with *no
  dependents* never reaches the heap in a static, unobserved run: it
  *lands* at the push site (the argument is beside ``lands`` in
  :meth:`~VectorizedSimulation.run`) -- 43 % of the base case's
  deliveries, all of them at no cooperation -- and is added back into
  ``events_processed``, so the count stays the reference's.
- **Counters.**  Per-node tallies are the flat lists of an
  :class:`~repro.core.metrics.ArrayCounters`; the other totals are local
  ints stored into it when the loop ends and folded into
  :class:`~repro.core.metrics.CostCounters` from there.

What is genuinely wide stays numpy: the
:class:`~repro.traces.schedule.UpdateSchedule` arrays.  The one place
in the loop where an update meets a whole *column* of tolerances -- an
item's unique tolerances at the centralised source -- holds its
last-sent state as a :class:`~repro.core.dissemination.filtering.
StaircaseTagger`.  Modeled clients are not in the loop at all: a
repository serves them locally, at no cost on the repository plane, so
their service is a pure function of each pair's delivery log, which
:meth:`~repro.engine.reconfig.ReconfigurationCore.serve_clients` runs
once, at scoring time, on every plane.

Reconfiguration (a churn schedule, a failure schedule or an adaptive
policy in the config): the run's control instants are applied inline,
each before any update or delivery at the same instant.  *What* they do
is :class:`~repro.engine.reconfig.ReconfigurationCore`'s business alone;
an engine is one of its edge stores: ``wire`` / ``unwire`` and friends
patch the edge-group columns (groups that exist only in a rebuilt graph
are materialised on first use), nothing more.  On the hot path the
engine reads the core's ``crashed`` / ``departed`` / ``down_links`` sets
(a message toward an unavailable repository or over a down link is a
drop, decided before the core's per-link loss stream is consumed -- one
scalar draw per message that enters a link) and at the end scores
fidelity over the core's availability segments.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from heapq import heappop, heappush
from math import inf, nan

import numpy as np

from repro.core.dissemination.filtering import FORWARD_RULES, StaircaseTagger
from repro.core.metrics import ArrayCounters, CostCounters
from repro.engine.builder import SimulationSetup, build_setup
from repro.engine.config import TTR_GROW_S, TTR_SHRINK, SimulationConfig
from repro.engine.reconfig import ReconfigurationCore
from repro.engine.results import SimulationResult
from repro.errors import ConfigurationError, SimulationError
from repro.traces.schedule import UpdateSchedule

__all__ = [
    "SimulationBase",
    "VectorizedSimulation",
    "make_simulation",
    "run_simulation",
]


class SimulationBase:
    """What the engine and its reference oracle share: one built setup,
    the run's counters and reconfiguration core and the per-pair delivery
    logs, which :meth:`SimulationResult.scored
    <repro.engine.results.SimulationResult.scored>` scores.

    A subclass is the core's edge store (``wire`` / ``unwire`` /
    ``unsubscribe`` / ``message_counts`` over its own tables) and
    supplies ``run()``; once its tables exist it has the core wire the
    initial graph
    (:meth:`~repro.engine.reconfig.ReconfigurationCore.wire_initial`,
    which also creates and primes every delivery log).

    Args:
        setup: The built setup; stays read-only, so many runs can share it.
        observer: Out-of-band observability hook
            (:class:`repro.obs.trace.TraceRecorder` or compatible).
            Never part of the config -- result-cache keys and
            fingerprints are unaffected -- and consulted only behind
            ``is not None`` guards, so an unobserved run does no extra
            work and an observed run is bit-identical (the observer
            records decisions; it never makes them).
    """

    def __init__(self, setup: SimulationSetup, observer=None):
        if observer is not None and setup.config.pull is not None:
            raise ConfigurationError(
                "an observer records push spans only; run pull unobserved"
            )
        self.setup = setup
        self.observer = observer
        self.counters = CostCounters()
        self._ran = False
        self._comp_delay_s = setup.config.comp_delay_ms / 1000.0
        self._source_value: dict[int, float] = {}
        # All control state and every reconfiguration rule live in the
        # core; the engine is its edge store.
        self._reconfig = ReconfigurationCore.for_setup(setup, self, self.counters)
        self._reconfig.observer = observer
        # The root of every item's tree (``setup.source`` is a property).
        self._source = setup.source
        # Per (repo, item): delivery log, flat [t0, v0, t1, v1, ...] --
        # two appends per delivery, no tuple.  The core creates and
        # primes each one as it wires the pair.
        self._deliveries: dict[tuple[int, int], list[float]] = {}

    # ------------------------------------------------------------------
    # The store-independent half of the edge-store port
    # ------------------------------------------------------------------

    def log(self, node: int, item_id: int, create: bool = False):
        if create:
            return self._deliveries.setdefault((node, item_id), [])
        return self._deliveries.get((node, item_id))

    def source_value(self, item_id: int) -> float:
        return self._source_value.get(
            item_id, self.setup.traces[item_id].initial_value
        )

    # ------------------------------------------------------------------

    def _begin_run(self) -> UpdateSchedule:
        """Claim this object's one run and return its source-update
        timeline (precomputed by the builder; recomputed here only for
        hand-built setups).  A rerun is refused: the first run's result
        holds the counters and logs a second one would write into."""
        if self._ran:
            raise SimulationError(
                "a simulation runs once; build a new one (make_simulation(setup))"
            )
        self._ran = True
        schedule = getattr(self.setup, "update_schedule", None)
        if schedule is None:
            schedule = UpdateSchedule.from_traces(self.setup.traces)
        return schedule

    def delivery_log(self, repo: int, item_id: int) -> list[tuple[float, float]]:
        """The (time, value) receive log for one repository/item pair.

        A tuple view, built on call: the engine and the reference keep
        each pair's log flat, ``[t0, v0, t1, v1, ...]``, with no object
        per delivery.  Entries are in arrival order -- by time, then
        push order -- on both classes: the reference pops events in
        that order, and the engine either pops its heap in it or, for a
        pair with no dependents in a static run, appends each arrival
        where it is sent, which is the same order (see
        ``docs/architecture/vectorized-kernel.md``, "Leaf landings").
        """
        log = self._deliveries.get((repo, item_id), [])
        return list(zip(log[0::2], log[1::2]))


class VectorizedSimulation(SimulationBase):
    """The engine: edge-group columns drained by one flat loop,
    bit-identical to the reference oracle."""

    def __init__(self, setup: SimulationSetup, observer=None):
        super().__init__(setup, observer)
        name = setup.config.policy
        # The run decides inline; the observer's view calls the rule.
        self._rule = FORWARD_RULES[name]
        # The centralised policy serves at quantised tolerances, keeps no
        # per-edge last-sent state, and tags updates at the source.
        self._centralized = name == "centralized"
        # Which operands wire() stores for the one last-sent test.
        self._flooding = name == "flooding"
        self._eq7 = name == "distributed"
        self._gid_of: dict[tuple[int, int], int] = {}
        self._g_node: list[int] = []
        self._g_item: list[int] = []
        self._g_issrc: list[bool] = []
        self._g_prc: list[float] = []
        self._g_child_gid: list[list[int]] = []
        self._g_cs: list[list[float]] = []
        self._g_last: list[list[float]] = []
        self._g_delay: list[list[float]] = []
        self._g_log: list[list | None] = []
        self._root_gid: dict[int, int] = {item_id: -1 for item_id in setup.traces}
        # Dense per-node lists cover the whole topology: churn can wire
        # repositories the initial graph never held.
        n_nodes = setup.network.topology.n_nodes
        self._busy = [0.0] * n_nodes
        self._acounters = ArrayCounters(n_nodes)
        # Filled edge by edge through wire(), like every later rewire.
        self._tagger = StaircaseTagger() if self._centralized else None
        self._reconfig.wire_initial(setup.traces)

    def _group(self, node: int, item_id: int) -> int:
        """The edge group for ``(node, item_id)``, appended with no
        dependents when absent: the initial wiring makes one per pair that
        sends or receives, and a rebuild can wire pairs that did neither
        in the original graph (a late joiner, a relay acquiring a new
        item through augmentation)."""
        key = (node, item_id)
        gid = self._gid_of.get(key)
        if gid is None:
            gid = self._gid_of[key] = len(self._g_node)
            issrc = node == self._source
            self._g_node.append(node)
            self._g_item.append(item_id)
            self._g_issrc.append(issrc)
            # A receiving pair's coherency and log arrive with the edge
            # that serves it (wire); a root has neither.
            self._g_prc.append(0.0)
            self._g_log.append(None)
            for column in (self._g_child_gid, self._g_cs, self._g_last, self._g_delay):
                column.append([])
            if issrc:
                self._root_gid[item_id] = gid
        return gid

    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Drain the merged source/delivery timeline, then score.

        One loop: the source branch and the delivery branch fall through
        to the same edge-group step (the reference's ``_process_at_node``
        child loop over flat columns), and every column, tally and
        total it touches is a local.
        """
        schedule = self._begin_run()
        times = schedule.times
        if (times[1:] < times[:-1]).any():
            raise SimulationError("static schedule must be time-sorted")
        # The timeline: one control segment's schedule indices at a time
        # (_segment; the last is the next segment's first update, or the
        # NaN after the schedule, which compares false with every
        # arrival), merged with a heap of ``(time, seq, ...)`` deliveries.
        source_times = times.tolist()
        n_static = len(source_times)
        source_times.append(nan)
        source_items = schedule.item_ids.tolist()
        source_values = schedule.values.tolist()
        n_seg = k = end = seq = 0
        heap: list[tuple] = []
        next_source = source_times[0]
        centralized = self._centralized
        source, root_gid = self._source, self._root_gid
        node_of, item_of = self._g_node, self._g_item
        g_issrc, g_prc = self._g_issrc, self._g_prc
        g_child, g_cs = self._g_child_gid, self._g_cs
        g_last, g_delay = self._g_last, self._g_delay
        g_log = self._g_log
        busy, comp_delay = self._busy, self._comp_delay_s
        counters = self._acounters
        node_checks, node_messages = counters.node_checks, counters.node_messages
        source_messages = source_checks = 0
        deliveries = drops = 0
        observer = self.observer

        core = self._reconfig
        crashed, departed, down = core.crashed, core.departed, core.down_links
        loss = core.loss
        loss_p = 0.0 if loss is None else loss.probability
        # Only a lossy run or one with a failure schedule can drop a
        # message at the sender; every other run skips both tests.
        filtered = loss is not None or core.failures is not None
        partitioned, lost = [], []
        controls = deque(core.timeline(schedule.span))
        reconfigures = bool(controls)
        # Leaf landings.  A copy sent to a pair with no dependents is
        # applied where it is sent instead of travelling the heap, when
        # nothing can re-parent, crash or watch the pair while the copy
        # is in flight.  Exact, not approximate:
        #   1. a node's FIFO departures are non-decreasing, an edge's
        #      delay is one constant and float addition is monotone, so
        #      the arrivals on one edge come in push order -- the heap's
        #      own (time, seq) order -- and a pair has one parent;
        #   2. a leaf delivery writes only its own log and commutative
        #      totals, so when it is applied relative to other pairs'
        #      events cannot show;
        #   3. the events left on the heap keep their relative
        #      (time, seq) order, and the drop tests and the push guard
        #      run at send time either way.
        lands = (
            not reconfigures and not crashed and not departed and observer is None
        )
        landed = 0

        def apply_controls(through: float) -> float:
            """Apply every control entry up to ``through``; return the
            next one's instant."""
            while controls and controls[0][0] <= through:
                core.apply(*controls.popleft())
            return controls[0][0] if controls else inf

        pull = self.setup.config.pull
        polls = self.setup.polls
        if polls:
            # A poll is three heap tuples, ``(time, seq, desk, value, hop,
            # pair, 0)``, addressed to the source's poll desk, a group with
            # no log: a delivery always goes to a wired pair, which has
            # one, so the delivery branch tells the two apart by the log.
            # Hop 0: the request leaves the repository; 1: it reaches the
            # source; 2: the response lands.
            desk = self._group(source, -1)
            traces, delay_s = self.setup.traces, self.setup.network.delay_s
            poll_log = [self._deliveries[pair] for pair in polls]
            poll_up = [delay_s(repo, source) for repo, _item in polls]
            poll_down = [delay_s(source, repo) for repo, _item in polls]
            poll_value = [traces[item_id].value_at for _repo, item_id in polls]
            poll_c = [self.setup.profiles[repo].requirements[x] for repo, x in polls]
            poll_ttr = [pull.ttr_s] * len(polls)
            end_s = max(float(trace.times[-1]) for trace in traces.values())
            for p in range(len(polls)):
                # De-phased first polls, so the repositories do not all
                # hit the source in the same instant.
                at = (p % 97) / 97.0 * pull.ttr_s
                if at <= end_s:
                    seq += 1
                    heappush(heap, (at, seq, desk, 0.0, 0, p, 0))

        next_control = apply_controls(-inf)
        while True:
            if heap and not next_source <= heap[0][0]:
                # A delivery (ties go to the source schedule, then to
                # push order): (time, seq, gid, value, tag, update_id,
                # sender node).
                t, _seq, gid, value, tag, update_id, src = heappop(heap)
                if next_control <= t:
                    # Same tie-break as the reference's event queue
                    # (control events are scheduled before everything
                    # else at run() start): an entry at t applies before
                    # the update or delivery at t.
                    next_control = apply_controls(t)
                if crashed or departed:
                    node = node_of[gid]
                    if node in crashed or node in departed:
                        # The sender paid for the message, but the
                        # repository left (or crashed) while it was in
                        # flight: a drop.
                        drops += 1
                        if observer is not None:
                            observer.on_drop(
                                update_id, item_of[gid], t, src, node,
                                "departed" if node in departed else "crash",
                            )
                        continue
                log = g_log[gid]
                if log is None:
                    # A poll's hop: ``tag`` is the hop, ``update_id`` the pair.
                    p = update_id
                    if tag == 0:
                        # The request is one message of the repository's.
                        node_messages[polls[p][0]] += 1
                        seq += 1
                        heappush(heap, (t + poll_up[p], seq, gid, value, 1, p, 0))
                    elif tag == 1:
                        # Delivered at the source, it waits on the queue
                        # push forwards use: one check and one computational
                        # delay, then the response leaves with the value
                        # the source holds by then.
                        deliveries += 1
                        backlog = busy[source]
                        done = (t if t > backlog else backlog) + comp_delay
                        busy[source] = done
                        source_checks += 1
                        node_checks[source] += 1
                        source_messages += 1
                        node_messages[source] += 1
                        value = poll_value[p](min(done, end_s))
                        seq += 1
                        heappush(heap, (done + poll_down[p], seq, gid, value, 2, p, 0))
                    else:
                        # The response is a delivery into the pair's log;
                        # the next poll goes one TTR later, the TTR shrunk
                        # by a change beyond the pair's tolerance and grown
                        # by a quiet one, within its bounds.
                        deliveries += 1
                        log = poll_log[p]
                        if abs(value - log[-1]) > poll_c[p]:
                            ttr = max(pull.ttr_min_s, poll_ttr[p] * TTR_SHRINK)
                        else:
                            ttr = min(pull.ttr_max_s, poll_ttr[p] + TTR_GROW_S)
                        poll_ttr[p] = ttr
                        log.append(t)
                        log.append(value)
                        if t + ttr <= end_s:
                            seq += 1
                            heappush(heap, (t + ttr, seq, gid, 0.0, 0, p, 0))
                    continue
                deliveries += 1
                if observer is not None:
                    observer.on_deliver(update_id, item_of[gid], t, node_of[gid])
                log.append(t)
                log.append(value)
            elif k < n_seg:
                # A source update, tagged as its segment began; the static
                # schedule index is its stable trace id.
                t = next_source
                update_id = seg_ids[k]
                tag = seg_tags[k]
                k += 1
                next_source = source_times[seg_ids[k]]
                item_id = source_items[update_id]
                if observer is not None:
                    # Only the centralised source suppresses updates.
                    disseminate = tag is not None or not centralized
                    observer.on_source(
                        update_id, item_id, t, source,
                        widths.get(item_id, 0), disseminate,
                    )
                    if not disseminate:
                        continue
                value = source_values[update_id]
                gid = root_gid[item_id]
                if gid < 0:
                    continue
            elif end < n_static:
                # The update that opens the next segment: the control
                # entries up to it apply first.
                t = next_source
                if next_control <= t:
                    next_control = apply_controls(t)
                start = end
                end = bisect_left(source_times, next_control, start, n_static)
                seg_ids, seg_tags, checks, widths = self._segment(
                    schedule, start, end, reconfigures
                )
                source_checks += checks
                node_checks[source] += checks
                n_seg, k = len(seg_tags), 0
                next_source = source_times[seg_ids[0]]
                continue
            else:
                break

            # The edge-group step, shared by both branches.
            cs = g_cs[gid]
            if not cs:
                continue  # a leaf, like most groups
            last = g_last[gid]
            prc = g_prc[gid]
            node = node_of[gid]
            children = g_child[gid]
            delays = g_delay[gid]
            # FIFO station: each forwarded copy departs one computational
            # delay after the previous one, the first after the later of
            # now and the node's backlog -- the reference station's own
            # additions.
            backlog = busy[node]
            departure = t if t > backlog else backlog
            if observer is not None:
                self._observe_group(gid, update_id, t, value, tag, departure)
            sent = 0
            for i, c in enumerate(cs):
                # The policy's rule, inline over the operands wire()
                # stored for it (see there): tag pruning, or Eq. (3) or
                # Eq. (7) and a new last-sent value.
                if centralized:
                    if not c <= tag:
                        continue
                else:
                    deviation = abs(value - last[i])
                    if not (deviation > c or c - deviation < prc):
                        continue
                    last[i] = value
                departure += comp_delay
                sent += 1
                if filtered:
                    # The reference child loop's order: a down link eats
                    # the message before the Bernoulli draw, so a link's
                    # loss stream is consumed only for messages that
                    # enter it (LinkLoss.drops, inline).
                    child = node_of[children[i]]
                    if down and (node, child) in down:
                        partitioned.append(child)
                        continue
                    if loss is not None and loss[node, child]() < loss_p:
                        lost.append(child)
                        continue
                arrival = departure + delays[i]
                if not arrival >= t:  # NaN or the past: BatchKernel.push's guard
                    raise SimulationError(
                        f"cannot schedule at {arrival!r}: clock is already at {t!r}"
                    )
                child_gid = children[i]
                if lands and not g_cs[child_gid]:
                    # The delivery branch's bookkeeping, at `arrival`.
                    landed += 1
                    log = g_log[child_gid]
                    if log is not None:
                        log.append(arrival)
                        log.append(value)
                else:
                    seq += 1
                    heappush(
                        heap, (arrival, seq, child_gid, value, tag, update_id, node)
                    )
            n = len(cs)
            node_checks[node] += n
            if g_issrc[gid]:
                source_checks += n
                source_messages += sent
            if sent:
                busy[node] = departure
                node_messages[node] += sent
                if partitioned or lost:
                    # Dropped at the sender, which already paid for them.
                    drops += len(partitioned) + len(lost)
                    if observer is not None:
                        for cohort, reason in (
                            (partitioned, "partition"), (lost, "loss")
                        ):
                            for child in cohort:
                                observer.on_drop(
                                    update_id, item_of[gid], t, node, child, reason
                                )
                    partitioned, lost = [], []
        # Entries past the last unit still close/open scoring segments
        # and count ticks; the reference runs them too.
        apply_controls(inf)
        counters.source_messages = source_messages
        counters.source_checks = source_checks
        counters.deliveries = deliveries + landed
        counters.drops = drops
        # The core charges reconfiguration, resync and client-serving
        # cost into self.counters; everything else was tallied here.
        # The two are disjoint, so a merge is the union.
        self.counters.merge(counters.to_cost_counters())
        core.serve_clients(self.setup.client_tolerances, self.setup.traces)
        # The reference runs each source update, control-timeline entry
        # and delivery as one discrete event; here every push is one
        # popped delivery or poll hop, the controls were applied inline
        # and the leaf landings at their push sites, so the count is
        # their sum.
        result = SimulationResult.scored(
            self.setup, core, schedule.span, n_static + seq + core.applied + landed
        )
        if pull is not None:
            pairs = sum(len(profile) for profile in self.setup.profiles.values())
            result.extras.update(
                push_pairs=pairs - len(polls),
                pull_pairs=len(polls),
                polls=sum(len(self._deliveries[pair]) // 2 - 1 for pair in polls),
            )
        return result

    def _segment(
        self, schedule: UpdateSchedule, start: int, end: int, reconfigures: bool
    ) -> tuple[list[int], list, int, dict[int, int]]:
        """One control segment's source updates, ``start:end``: their
        schedule indices (then ``end``), tags, the checks they cost and
        each item's checks per update.  The centralised source tags each
        item's in one ``StaircaseTagger.tag`` pass and keeps only those it
        disseminates (all, the quiet ones untagged, in an observed run).
        A reconfiguring run leaves the root's copy of each item at its
        last value, for the syncs of the instant that ends the segment."""
        items = schedule.item_ids[start:end]
        if reconfigures:
            self._source_value.update(
                zip(items.tolist(), schedule.values[start:end].tolist())
            )
        tagger, n = self._tagger, end - start
        if tagger is None:
            return range(start, end + 1), [None] * n, 0, {}
        # ``order[a:b]``: one item's offsets into the segment, in order.
        order = np.argsort(items, kind="stable")
        grouped = items[order]
        cuts = (np.flatnonzero(grouped[1:] != grouped[:-1]) + 1).tolist()
        values = schedule.values[start:end][order].tolist()
        checks, widths = 0, {}
        hits, hit_tags = [], []  # the positions in ``order`` sent
        for a, b in zip([0] + cuts, cuts + [n]):
            item_id = int(grouped[a])
            width, sent, item_tags = tagger.tag(item_id, values[a:b])
            widths[item_id] = width
            checks += width * (b - a)
            hits += [a + position for position in sent]
            hit_tags += item_tags
        offsets = order[hits]
        if self.observer is not None:
            tags = [None] * n
            for offset, tag in zip(offsets.tolist(), hit_tags):
                tags[offset] = tag
            return range(start, end + 1), tags, checks, widths
        rank = np.argsort(offsets)
        ids = (offsets[rank] + start).tolist()
        ids.append(end)
        return ids, np.array(hit_tags)[rank].tolist(), checks, widths

    def _observe_group(
        self, gid: int, update_id: int, t: float, value: float, tag, departure: float
    ) -> None:
        """Tell the observer what the edge-group step is about to do.

        The rules are pure, so evaluated before any last-sent value
        moves they give the step's own decisions; the latencies repeat
        its additions from ``departure``, the station's first free instant.
        """
        node_of, observer = self._g_node, self.observer
        node, item_id = node_of[gid], self._g_item[gid]
        children = [node_of[g] for g in self._g_child_gid[gid]]
        rule, prc, is_source = self._rule, self._g_prc[gid], self._g_issrc[gid]
        fired = []
        for child, sent, c in zip(children, self._g_last[gid], self._g_cs[gid]):
            forward = rule(value, sent, c, prc, tag)
            fired.append(forward)
            observer.on_check(update_id, item_id, t, node, child, 1, forward, is_source)
        for child, delay, forward in zip(children, self._g_delay[gid], fired):
            if forward:
                departure += self._comp_delay_s
                observer.on_forward(
                    update_id, item_id, t, node, child, departure + delay - t
                )

    # ------------------------------------------------------------------
    # Edge-store port: the same surgery on the edge-group columns.
    # ------------------------------------------------------------------

    def message_counts(self) -> dict[int, int]:
        # The exact dict the reference's CostCounters.per_node_messages
        # holds at the same event boundary (order is irrelevant to the
        # drift estimator).
        return self._acounters.message_counts()

    def unwire(self, parent: int, child: int, item_id: int, c: float) -> None:
        gid = self._gid_of[(parent, item_id)]
        try:
            i = self._g_child_gid[gid].index(self._gid_of[(child, item_id)])
        except ValueError:
            raise SimulationError(
                f"edge group for node {parent} holds no dependent for "
                f"node {child}, item {item_id}"
            ) from None
        for column in (self._g_child_gid, self._g_cs, self._g_last, self._g_delay):
            del column[gid][i]
        if self._centralized:
            self._tagger.remove_tolerance(item_id, c)

    def unsubscribe(self, node: int, item_id: int) -> None:
        """Nothing to patch: in-flight deliveries still append to the
        kept log, and whom a pair serves is the core's record."""

    def wire(
        self, parent: int, child: int, item_id: int, c: float, initial: float
    ) -> None:
        """Append ``child`` to all four columns of ``parent``'s group and
        point the child's group at the pair's current state: the receive
        coherency just changed and the delivery log may be new, and
        in-flight as well as future deliveries must see both.

        The tolerance column and the receive coherency hold the operands
        of the policy's inline test: ``(c, c_child)`` for distributed,
        ``(c, 0.0)`` for Eq. (3) alone, ``(0.0, 0.0)`` for flooding and
        the quantised ``c`` for the centralised tag test (the tagger's,
        which quantises it once as it counts it).  Eq. (3) alone
        is Eq. (3)-or-Eq. (7) at a zero receive coherency, and for
        finite values "every change" is Eq. (3) at a zero tolerance
        (``|v - l| > 0`` iff ``v != l``), so the three last-sent
        policies share one test."""
        if self._centralized:
            served = self._tagger.add_tolerance(item_id, c, initial)
        else:
            served = 0.0 if self._flooding else c
        gid = self._group(parent, item_id)
        child_gid = self._group(child, item_id)
        self._g_child_gid[gid].append(child_gid)
        self._g_cs[gid].append(served)
        self._g_last[gid].append(initial)
        self._g_delay[gid].append(self.setup.network.delay_s(parent, child))
        self._g_prc[child_gid] = c if self._eq7 else 0.0
        self._g_log[child_gid] = self._deliveries.get((child, item_id))


def make_simulation(setup: SimulationSetup, observer=None) -> SimulationBase:
    """Instantiate the engine for ``setup``.

    There is one engine (:class:`VectorizedSimulation`) and one
    reference (:mod:`repro.engine.oracle`, the per-event oracle the
    golden suite compares against).  ``kernel="auto"`` and
    ``kernel="vectorized"`` both mean the engine; ``kernel="scalar"``
    runs the reference instead, for debugging.  The two are
    bit-identical on every run, and the engine is faster at every
    edge-group width the repo can produce, so nothing selects between
    them.  ``paper`` preset with 300-sample traces, seconds per
    ``make_simulation(setup).run()`` against the offered degree, median
    of 5 on a 2-core container (the last column is no cooperation at
    1000 repositories, 4 items, 200 samples -- the widest source groups
    the repo produces):

    =================  =====  =====  =====  =====  =====  =====
    offered degree         4      8     16     32    100   1000
    widest edge group      4      8     16     28     61    533
    =================  =====  =====  =====  =====  =====  =====
    engine             0.085  0.070  0.053  0.061  0.035  0.053
    reference          0.33   0.29   0.26   0.28   0.26   0.36
    =================  =====  =====  =====  =====  =====  =====

    A delivery to an edge group with no dependents lands at its push
    site and never sees the heap, so the flatter the tree the less of a
    run is event handling: 50 / 60 / 74 / 65 / 98 / 100 % of the groups
    are such leaves in the six columns (all but the source's at no
    cooperation, where the heap stays empty).

    ``observer`` (e.g. a :class:`repro.obs.trace.TraceRecorder`) is
    attached out-of-band; it records trace spans without perturbing the
    run.
    """
    if setup.config.kernel == "scalar":
        # Imported here: the oracle module builds on this one's base.
        from repro.engine.oracle import DisseminationSimulation

        return DisseminationSimulation(setup, observer=observer)
    return VectorizedSimulation(setup, observer=observer)


def run_simulation(
    config: SimulationConfig,
    setup: SimulationSetup | None = None,
    base: SimulationSetup | None = None,
    observer=None,
) -> SimulationResult:
    """Build (or reuse) a setup and run one simulation end to end.

    Args:
        config: The run's full parameterisation.
        setup: Optional prebuilt setup for exactly this config; used as
            is, without rebuilding anything.
        base: Optional setup from an earlier config in a sweep; pieces
            unaffected by the config delta (network, traces, interests)
            are recycled from it.
        observer: Optional out-of-band trace observer (see
            :mod:`repro.obs.trace`); attaching one never changes the
            result.
    """
    if setup is None:
        setup = build_setup(config, base=base)
    return make_simulation(setup, observer=observer).run()
