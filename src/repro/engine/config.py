"""Simulation configuration and scale presets.

One :class:`SimulationConfig` fully determines a run: the same config
(same seed) always produces the same result.  Everything a run needs is
a *value* inside the config -- including the workload that generates the
update streams (:mod:`repro.workloads`) and any mid-run churn schedule
(:mod:`repro.engine.churn`).  The paper's base case is the ``paper``
preset -- 1 source, 100 repositories, 600 routers, Pareto link delays
with a 15 ms mean, 12.5 ms computational delay, traces of 10 000
one-second samples.  The ``small``/``tiny`` presets shrink the
workload for experiment sweeps and CI respectively while keeping every
ratio (router:repository, change rate, delay scales) intact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.dissemination.filtering import FILTERED_POLICIES, validate_tolerance
from repro.engine.adaptive import AdaptivePolicy
from repro.engine.churn import ChurnSchedule
from repro.engine.failures import FailureSchedule
from repro.errors import ConfigurationError
from repro.workloads import Table1Workload, Workload

__all__ = [
    "PullConfig", "SimulationConfig", "SCALE_PRESETS", "KERNELS", "TTR_SHRINK", "TTR_GROW_S",
]

#: Spellings ``SimulationConfig.kernel`` accepts.  There is one engine:
#: ``auto`` and ``vectorized`` both mean it.  ``scalar`` runs the
#: per-event reference oracle (:mod:`repro.engine.oracle`) instead, for
#: debugging; results are bit-identical -- the golden suite in
#: ``tests/engine/test_vectorized_golden.py`` pins it.
KERNELS = ("auto", "scalar", "vectorized")

#: The integer fields and the smallest value each accepts.
_INTEGER_MINIMA = {
    "seed": 0,
    "n_repositories": 1,
    "n_routers": 0,
    "n_items": 1,
    "trace_samples": 2,
    "offered_degree": 1,
    "clients_per_repository": 0,
}


#: The adaptive TTR's multiplicative decrease, applied after a response
#: that moved the copy by more than the pair's tolerance, and its
#: additive increase (seconds), applied after a quiet one.
TTR_SHRINK = 0.5
TTR_GROW_S = 2.0


@dataclass(frozen=True)
class PullConfig:
    """Pull and push-pull hybrid dissemination (the paper's Section 8
    outlook): who polls the source instead of riding the ``d3g``, and
    how often.

    A subscription with ``c <= threshold_c`` rides the cooperative push
    ``d3g``; every other one polls the source directly, once per *time
    to refresh* (TTR), unless the ``d3g`` already delivers the item to
    its repository (an augmented relay).  ``threshold_c = 0`` is pure
    pull, ``inf`` pure push.  A poll costs the source one serialised
    computational delay on the queue push forwards use, and two
    messages: the request and the response, which carries the value the
    source holds when it finishes serving it.

    The TTR is the classic adaptive one, kept within
    ``[ttr_min_s, ttr_max_s]``: a response that moved the copy by more
    than the pair's tolerance multiplies it by :data:`TTR_SHRINK`, a
    quiet one adds :data:`TTR_GROW_S`.  Both bounds default to
    ``ttr_s``, which pins the TTR: a fixed schedule.

    Attributes:
        ttr_s: The initial TTR (the whole schedule when fixed).
        ttr_min_s: Lower bound (hot items poll this fast).
        ttr_max_s: Upper bound (quiet items back off to this).
        threshold_c: The push/pull tolerance boundary ($).
    """

    ttr_s: float = 10.0
    ttr_min_s: float | None = None
    ttr_max_s: float | None = None
    threshold_c: float = 0.0

    def __post_init__(self) -> None:
        for name in ("ttr_min_s", "ttr_max_s"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, self.ttr_s)
        for name in ("ttr_s", "ttr_min_s", "ttr_max_s"):
            # NaN passes the ordering check below, and a non-finite TTR
            # schedules a poll the engine refuses mid-run.
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(
                    f"{name} must be finite, got {getattr(self, name)!r}"
                )
        if not 0 < self.ttr_min_s <= self.ttr_s <= self.ttr_max_s:
            raise ConfigurationError(
                f"need 0 < ttr_min_s <= ttr_s <= ttr_max_s, got "
                f"({self.ttr_min_s!r}, {self.ttr_s!r}, {self.ttr_max_s!r})"
            )
        # Written so NaN fails too; +inf is legal (everything pushes).
        if not self.threshold_c >= 0:
            raise ConfigurationError(f"need threshold_c >= 0, got {self.threshold_c!r}")


@dataclass(frozen=True)
class SimulationConfig:
    """Everything one dissemination simulation needs.

    Attributes:
        seed: Master seed for all random streams.
        n_repositories: Repository count (paper: 100).
        n_routers: Router count (paper: 600).
        avg_degree: Physical-mesh average node degree.
        link_delay_mean_ms: Mean Pareto link delay (paper: 15 ms). The
            delay-sweep experiments rescale this; ``0`` gives an
            idealised zero-delay network.
        link_delay_min_ms: Minimum Pareto link delay (paper: 2 ms).
        comm_target_ms: When set, uniformly rescale all network delays
            so the mean repository-to-repository end-to-end delay hits
            this value (the x-axis of Figures 5 and 7b); ``0`` gives the
            idealised zero-delay network.
        comp_delay_ms: Computational delay to disseminate one update to
            one dependent (paper: 12.5 ms).
        n_items: Number of dynamic data items.
        trace_samples: Polled samples per trace (paper: 10 000 at 1/s).
        workload: The :class:`~repro.workloads.Workload` generating the
            per-item update streams.  The default
            :class:`~repro.workloads.Table1Workload` reproduces the
            paper's stationary Table 1-calibrated traces bit for bit;
            alternatives (flash crowds, diurnal cycles, CSV replay) live
            in :mod:`repro.workloads`.  Workloads are frozen, hashable
            specs, so the config -- and with it sweep merging and churn
            replay -- stays fully value-determined.
        subscription_probability: P(repository wants an item) (paper: 0.5).
        t_percent: The paper's T -- % of items with stringent tolerances.
        policy: Dissemination policy name, one of
            :data:`~repro.core.dissemination.filtering.FILTERED_POLICIES`.
        offered_degree: Cooperative resources each node offers (the
            sweep variable of Figures 3/7/8; the paper's ``cResources``
            when ``controlled_cooperation`` is on).
        controlled_cooperation: Clamp the offered degree with Eq. (2).
        interest_fraction_f: Eq. (2)'s ``f`` (paper default 50).
        preference: LeLA preference function, ``"p1"`` or ``"p2"``.
        p_percent: LeLA load-controller admission band (paper: 5%).
        message_loss_probability: Failure-injection knob -- probability
            an update message is silently lost in the network (the paper
            assumes a reliable network; 0 reproduces it).
        kernel: ``auto`` (default) and ``vectorized`` both run the
            engine; ``scalar`` runs the per-event reference oracle the
            engine is tested against.  The two are bit-identical on
            every run, so this debugging switch never changes results
            -- only wall-clock.
        clients_per_repository: Modeled end-clients attached to each
            repository (0 reproduces the paper's repository-only plane).
            Each client subscribes to one of its repository's items and
            is served by the repository-local Eq. (3) + Eq. (7) filter
            at the client's own (less stringent) tolerance.  Clients
            cost the repository plane nothing, so every plane serves
            them once, at scoring time, from the delivery logs
            (:meth:`~repro.engine.reconfig.ReconfigurationCore.
            serve_clients`); client traffic is accounted separately
            (``client_checks``/``client_messages``) and never feeds back
            into repository-plane queueing.
        churn: Optional mid-run churn schedule (timed joins, departures
            and coherency changes; see :mod:`repro.engine.churn`).
            ``None`` -- or an empty schedule, which is normalised to
            ``None`` -- reproduces the paper's static membership.  When
            events are present, the initial members join the initial
            graph one by one, by the call a mid-run join makes, so
            mid-run rebuilds keep the same join order
            (:class:`~repro.engine.reconfig.LelaInputs`).
        failures: Optional unplanned-failure schedule (repository
            crash/recover events, link down/up windows; see
            :mod:`repro.engine.failures`).  ``None`` -- or an empty
            schedule, normalised to ``None`` -- reproduces the paper's
            reliable network.  Executed identically by both kernels:
            messages toward crashed repositories or over down links
            count as drops, orphaned dependents fail over to a backup
            parent (charged as reconfiguration cost), and recovering
            repositories anti-entropy-resync only their missed
            update-set.
        adaptive: Optional online re-optimization policy (see
            :mod:`repro.engine.adaptive`).  ``None`` reproduces the
            paper's static ``d3g``.  When set, both kernels run a
            drift-triggered controller that re-applies LeLA with
            observed load folded into the level ranking and rewires
            only the changed service edges live, charging every rewire
            into reconfiguration cost.

            ``churn``, ``failures`` and ``adaptive`` compose: each source
            proposes the next graph or moves edges within it, and
            :class:`~repro.engine.reconfig.ReconfigurationCore` wires the
            result under the current members and live set.
        pull: Optional :class:`PullConfig`: the subscriptions above its
            threshold poll the source instead of riding the ``d3g``.
            ``None`` is the paper's pure push.  Polls run on the engine
            only, on a static, lossless network: combined with churn,
            failures, adaptive rewiring, message loss or the scalar
            reference it is refused.
    """

    seed: int = 20020812
    n_repositories: int = 100
    n_routers: int = 600
    avg_degree: float = 3.0
    link_delay_mean_ms: float = 15.0
    link_delay_min_ms: float = 2.0
    comm_target_ms: float | None = None
    comp_delay_ms: float = 12.5
    n_items: int = 20
    trace_samples: int = 10_000
    workload: Workload = field(default_factory=Table1Workload)
    subscription_probability: float = 0.5
    t_percent: float = 80.0
    policy: str = "distributed"
    offered_degree: int = 4
    controlled_cooperation: bool = False
    interest_fraction_f: float = 50.0
    preference: str = "p1"
    p_percent: float = 5.0
    message_loss_probability: float = 0.0
    kernel: str = "auto"
    clients_per_repository: int = 0
    churn: ChurnSchedule | None = None
    failures: FailureSchedule | None = None
    adaptive: AdaptivePolicy | None = None
    pull: PullConfig | None = None

    def __post_init__(self) -> None:
        for name, low in _INTEGER_MINIMA.items():
            value = getattr(self, name)
            # bool is an int subclass; a float (NaN included) is refused
            # here rather than deep inside the build.
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ConfigurationError(f"{name} must be >= {low}")
        # Written so that NaN fails too: every comparison with it is false.
        if not math.isfinite(self.avg_degree):
            raise ConfigurationError("avg_degree must be finite")
        if not math.isfinite(self.comp_delay_ms) or self.comp_delay_ms < 0:
            raise ConfigurationError("comp_delay_ms must be finite and >= 0")
        if not math.isfinite(self.link_delay_mean_ms) or self.link_delay_mean_ms < 0:
            raise ConfigurationError("link_delay_mean_ms must be finite and >= 0")
        if not math.isfinite(self.link_delay_min_ms):
            raise ConfigurationError("link_delay_min_ms must be finite")
        if self.comm_target_ms is not None and (
            not math.isfinite(self.comm_target_ms) or self.comm_target_ms < 0
        ):
            raise ConfigurationError("comm_target_ms must be finite and >= 0 when set")
        if not math.isfinite(self.p_percent) or self.p_percent < 0:
            raise ConfigurationError("p_percent must be finite and >= 0")
        if not 0.0 <= self.t_percent <= 100.0:
            raise ConfigurationError("t_percent must be in [0, 100]")
        if not math.isfinite(self.interest_fraction_f) or self.interest_fraction_f <= 0:
            raise ConfigurationError("interest_fraction_f must be finite and positive")
        if not 0.0 <= self.message_loss_probability < 1.0:
            raise ConfigurationError(
                "message_loss_probability must be in [0, 1)"
            )
        if not isinstance(self.workload, Workload):
            raise ConfigurationError(
                f"workload must be a Workload, got {type(self.workload).__name__} "
                "(build one with repro.workloads.make_workload)"
            )
        self.workload.validate()
        if self.policy not in FILTERED_POLICIES:
            raise ConfigurationError(
                f"the engine supports policies {list(FILTERED_POLICIES)}, "
                f"got {self.policy!r}"
            )
        if self.kernel not in KERNELS:
            raise ConfigurationError(
                f"kernel must be one of {list(KERNELS)}, got {self.kernel!r}"
            )
        for name, schedule_type in (
            ("churn", ChurnSchedule), ("failures", FailureSchedule)
        ):
            schedule = getattr(self, name)
            if schedule is not None and not isinstance(schedule, schedule_type):
                raise ConfigurationError(
                    f"{name} must be a {schedule_type.__name__} or None, got "
                    f"{type(schedule).__name__}"
                )
            if schedule is not None and not schedule:
                # An empty schedule is exactly static membership (the
                # reliable network); normalise so both spellings share
                # one graph-construction path (and one hash bucket in
                # sweep merging).
                object.__setattr__(self, name, None)
        if self.churn is not None:
            # Churn events inject *user-supplied* coherency tolerances
            # mid-run; reject non-finite or sub-quantum ones here, at
            # build time, rather than letting quantisation collapse them
            # to 0.0 deep inside a reconfiguration.
            for event in self.churn:
                for item_id, c in event.requirements or ():
                    validate_tolerance(
                        c,
                        f"churn {event.kind} for repository {event.repository}, "
                        f"item {item_id}: tolerance",
                    )
        if self.failures is not None:
            self.failures.validate_nodes(self.n_repositories)
        if self.adaptive is not None and not isinstance(self.adaptive, AdaptivePolicy):
            raise ConfigurationError(
                "adaptive must be an AdaptivePolicy or None, got "
                f"{type(self.adaptive).__name__}"
            )
        if self.pull is not None:
            if not isinstance(self.pull, PullConfig):
                raise ConfigurationError(
                    f"pull must be a PullConfig or None, got {type(self.pull).__name__}"
                )
            # What polls do not model is refused, not ignored.
            reconfigures = any(
                part is not None for part in (self.churn, self.failures, self.adaptive)
            )
            if reconfigures or self.message_loss_probability or self.kernel == "scalar":
                raise ConfigurationError(
                    "pull polls on the engine over a static, lossless network: "
                    "drop churn, failures, adaptive, message loss and "
                    "kernel='scalar', or the pull config"
                )

    def with_(self, **overrides) -> "SimulationConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)


#: Named scale presets.  ``paper`` matches the paper's base case except
#: for the item count (the paper used up to 100 traces; 20 keeps the
#: pure-Python run tractable -- scale ``n_items`` up to match exactly).
SCALE_PRESETS: dict[str, SimulationConfig] = {
    "tiny": SimulationConfig(
        n_repositories=20,
        n_routers=60,
        n_items=6,
        trace_samples=600,
    ),
    "small": SimulationConfig(
        n_repositories=50,
        n_routers=200,
        n_items=10,
        trace_samples=2_500,
    ),
    "paper": SimulationConfig(
        n_repositories=100,
        n_routers=600,
        n_items=20,
        trace_samples=10_000,
    ),
    # An order of magnitude past the paper's grids (ROADMAP item 1):
    # 10^3 repositories serving 10^6 modeled clients.  Router count is
    # kept moderate because the router mesh is orthogonal to the
    # dissemination behaviour under study; the
    # vectorized kernel is what makes this preset tractable (the scalar
    # oracle still runs it, ~10x+ slower -- pinned in
    # ``benchmarks/bench_scalability.py``).
    "scalability": SimulationConfig(
        n_repositories=1_000,
        n_routers=250,
        n_items=8,
        trace_samples=2_000,
        clients_per_repository=1_000,
    ),
}
