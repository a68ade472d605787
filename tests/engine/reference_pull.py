"""The per-event pull reference the engine's polls are checked against.

Every repository polls the source for every item of its profile once
per time to refresh, on its own :class:`~repro.sim.kernel.Simulator`
and :class:`~repro.sim.queueing.FifoStation`: three callbacks per poll,
no cooperation.  The engine runs the same polls as rows on its own
heap (``repro.engine.simulation``); ``test_pull.py`` holds the two
equal, field for field.  Run on a pure-pull setup
(``PullConfig.threshold_c == 0``), whose profiles are all polled.
"""

from __future__ import annotations

from repro.core.fidelity import (
    FidelityAccumulator,
    scoring_windows,
    segmented_losses,
)
from repro.core.metrics import CostCounters
from repro.engine.builder import SimulationSetup
from repro.engine.config import TTR_GROW_S, TTR_SHRINK, PullConfig
from repro.sim.kernel import Simulator
from repro.sim.queueing import FifoStation


class PullSimulation:
    """Every repository polls the source directly; no cooperation.

    One poll = request travels repo->source, the source serves it
    (serialised ``comp_delay`` like a push check), the response travels
    source->repo carrying the value the source held *when it processed
    the request*.  Two messages are charged per poll.
    """

    def __init__(self, setup: SimulationSetup, ttr: PullConfig) -> None:
        self.setup = setup
        self.ttr = ttr
        self.kernel = Simulator()
        self.counters = CostCounters()
        self._source_station = FifoStation()
        self._comp_delay_s = setup.config.comp_delay_ms / 1000.0
        # Per (repo, item): flat receive log [t0, v0, t1, v1, ...].
        self._deliveries: dict[tuple[int, int], list[float]] = {}
        self._current_ttr: dict[tuple[int, int], float] = {}
        self._end_s = max(float(t.times[-1]) for t in setup.traces.values())

    # ------------------------------------------------------------------

    def _schedule_poll(self, repo: int, item_id: int, at: float) -> None:
        if at > self._end_s:
            return
        self.kernel.schedule_at(at, self._send_request, repo, item_id)

    def _send_request(self, repo: int, item_id: int) -> None:
        self.counters.record_message(repo, is_source=False)  # the request
        arrival = self.kernel.now + self.setup.network.delay_s(
            repo, self.setup.source
        )
        self.kernel.schedule_at(arrival, self._serve_request, repo, item_id)

    def _serve_request(self, repo: int, item_id: int) -> None:
        # The source spends one computational delay per served poll,
        # serialised with every other poll it is handling.
        done = self._source_station.submit(self.kernel.now, self._comp_delay_s)
        self.counters.record_delivery()  # the request reached the source
        self.counters.record_check(self.setup.source, is_source=True)
        trace = self.setup.traces[item_id]
        value = trace.value_at(min(done, self._end_s))
        self.counters.record_message(self.setup.source, is_source=True)
        arrival = done + self.setup.network.delay_s(self.setup.source, repo)
        self.kernel.schedule_at(arrival, self._receive_response, repo, item_id, value)

    def _receive_response(self, repo: int, item_id: int, value: float) -> None:
        self.counters.record_delivery()
        key = (repo, item_id)
        log = self._deliveries[key]
        previous = log[-1]
        log.append(self.kernel.now)
        log.append(value)

        ttr = self._current_ttr[key]
        c = self.setup.profiles[repo].requirements[item_id]
        if abs(value - previous) > c:
            ttr = max(self.ttr.ttr_min_s, ttr * TTR_SHRINK)
        else:
            ttr = min(self.ttr.ttr_max_s, ttr + TTR_GROW_S)
        self._current_ttr[key] = ttr
        self._schedule_poll(repo, item_id, self.kernel.now + ttr)

    # ------------------------------------------------------------------

    def run(self):
        """Poll until the traces end; return a push-compatible result."""
        from repro.engine.results import SimulationResult

        rng_offsets = iter(range(10_000_000))
        for repo, profile in self.setup.profiles.items():
            for item_id in profile.requirements:
                key = (repo, item_id)
                initial = self.setup.traces[item_id].initial_value
                self._deliveries[key] = [0.0, initial]
                self._current_ttr[key] = self.ttr.ttr_s
                # De-phase the first polls deterministically so the whole
                # fleet does not hit the source in the same instant.
                offset = (next(rng_offsets) % 97) / 97.0 * self.ttr.ttr_s
                self._schedule_poll(repo, item_id, offset)
        self.kernel.run()

        span = 0.0
        windows = scoring_windows(self.setup.traces)
        pairs = []
        for (repo, item_id), log in self._deliveries.items():
            trace = self.setup.traces[item_id]
            span = max(span, trace.span)
            c = self.setup.profiles[repo].requirements[item_id]
            t0, t1 = windows[item_id]
            # Owed from the window's start at c: one open segment.
            pairs.append((trace, log, [(t0, None, c)], t0, t1))
        accumulator = FidelityAccumulator()
        per_pair: dict[tuple[int, int], float] = {}
        for key, loss in zip(self._deliveries, segmented_losses(pairs)):
            accumulator.add(*key, loss)
            per_pair[key] = loss
        return SimulationResult(
            loss_of_fidelity=accumulator.system_loss(),
            per_repository_loss=accumulator.per_repository(),
            counters=self.counters,
            tree_stats=self.setup.graph.stats(),
            effective_degree=0,  # pull uses no cooperative fan-out
            avg_comm_delay_ms=self.setup.avg_comm_delay_ms,
            events_processed=self.kernel.events_processed,
            sim_span_s=span,
            extras={
                "ttr_s": self.ttr.ttr_s,
                "per_pair_loss": per_pair,
            },
        )
