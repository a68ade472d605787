"""Pull-based dissemination baselines (the paper's Section 8 outlook).

The paper's architecture is push-based; its conclusions point at pull,
adaptive push-pull combinations and leases as alternatives (citing
Srinivasan et al.'s TTR work).  This module implements the pull side so
the comparison can actually be run:

- **Fixed TTR**: every repository polls the source for every item of
  interest once per *time to refresh*.  Cheap to implement, but the TTR
  must be guessed: too long loses fidelity, too short floods the source
  with poll traffic (each poll costs the source the same serialised
  computational delay an update push would).
- **Adaptive TTR**: the classic multiplicative-decrease /
  additive-increase adaptation — when a poll reveals a change larger
  than the repository's tolerance the TTR shrinks (the item is hot);
  quiet polls let it grow back toward the maximum.

Both poll the *source directly* (no cooperation), which is exactly why
push through a cooperative d3g wins at scale: the pull source does
O(repositories x items) work where the push source does O(degree).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.fidelity import (
    FidelityAccumulator,
    scoring_windows,
    segmented_losses,
)
from repro.core.metrics import CostCounters
from repro.engine.builder import SimulationSetup
from repro.errors import ConfigurationError
from repro.sim.kernel import Simulator
from repro.sim.queueing import FifoStation

__all__ = ["TtrConfig", "PullSimulation", "run_pull_simulation"]


@dataclass(frozen=True)
class TtrConfig:
    """Time-to-refresh policy parameters.

    Attributes:
        mode: ``"fixed"`` or ``"adaptive"``.
        ttr_s: The fixed TTR, and the adaptive variant's initial TTR.
        ttr_min_s: Adaptive lower bound (hot items poll this fast).
        ttr_max_s: Adaptive upper bound (quiet items back off to this).
        shrink: Multiplicative decrease applied on a tolerance-exceeding
            change (0 < shrink < 1).
        grow: Additive increase (seconds) applied after a quiet poll.
    """

    mode: str = "fixed"
    ttr_s: float = 10.0
    ttr_min_s: float = 1.0
    ttr_max_s: float = 60.0
    shrink: float = 0.5
    grow: float = 2.0

    def __post_init__(self) -> None:
        if self.mode not in ("fixed", "adaptive"):
            raise ConfigurationError(
                f"mode must be 'fixed' or 'adaptive', got {self.mode!r}"
            )
        for name in ("ttr_s", "ttr_min_s", "ttr_max_s", "shrink", "grow"):
            # NaN passes the one-sided checks below, and a non-finite
            # TTR schedules a poll the simulator refuses mid-run.
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(
                    f"{name} must be finite, got {getattr(self, name)!r}"
                )
        if self.ttr_s <= 0:
            raise ConfigurationError(f"ttr_s must be positive, got {self.ttr_s!r}")
        if not 0 < self.ttr_min_s <= self.ttr_max_s:
            raise ConfigurationError(
                f"need 0 < ttr_min_s <= ttr_max_s, got "
                f"({self.ttr_min_s!r}, {self.ttr_max_s!r})"
            )
        if not 0.0 < self.shrink < 1.0:
            raise ConfigurationError(f"shrink must be in (0, 1), got {self.shrink!r}")
        if self.grow < 0.0:
            raise ConfigurationError(f"grow must be >= 0, got {self.grow!r}")


class PullSimulation:
    """Every repository polls the source directly; no cooperation.

    One poll = request travels repo->source, the source serves it
    (serialised ``comp_delay`` like a push check), the response travels
    source->repo carrying the value the source held *when it processed
    the request*.  Two messages are charged per poll.
    """

    def __init__(self, setup: SimulationSetup, ttr: TtrConfig) -> None:
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
        if self.ttr.mode == "adaptive":
            c = self.setup.profiles[repo].requirements[item_id]
            if abs(value - previous) > c:
                ttr = max(self.ttr.ttr_min_s, ttr * self.ttr.shrink)
            else:
                ttr = min(self.ttr.ttr_max_s, ttr + self.ttr.grow)
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
                "mode": f"pull-{self.ttr.mode}",
                "ttr_s": self.ttr.ttr_s,
                "per_pair_loss": per_pair,
            },
        )


def run_pull_simulation(setup: SimulationSetup, ttr: TtrConfig):
    """Convenience wrapper mirroring :func:`repro.engine.run_simulation`."""
    return PullSimulation(setup, ttr).run()
