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

from dataclasses import dataclass, field, replace

from repro.core.dissemination.filtering import FILTERED_POLICIES, validate_tolerance
from repro.engine.adaptive import AdaptivePolicy
from repro.engine.churn import ChurnSchedule
from repro.engine.failures import FailureSchedule
from repro.errors import ConfigurationError
from repro.workloads import Table1Workload, Workload

__all__ = ["SimulationConfig", "SCALE_PRESETS", "KERNELS"]

#: Spellings ``SimulationConfig.kernel`` accepts.  There is one engine:
#: ``auto`` and ``vectorized`` both mean it.  ``scalar`` runs the
#: per-event reference oracle (:mod:`repro.engine.oracle`) instead, for
#: debugging; results are bit-identical -- the golden suite in
#: ``tests/engine/test_vectorized_golden.py`` pins it.
KERNELS = ("auto", "scalar", "vectorized")


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
            at the client's own (less stringent) tolerance, exactly as
            the live layer serves its clients; client traffic is
            accounted separately (``client_checks``/``client_messages``)
            and never feeds back into repository-plane queueing.
        churn: Optional mid-run churn schedule (timed joins, departures
            and coherency changes; see :mod:`repro.engine.churn`).
            ``None`` -- or an empty schedule, which is normalised to
            ``None`` -- reproduces the paper's static membership.  When
            events are present, the initial graph is built through
            :class:`~repro.core.dynamics.DynamicMembership` so mid-run
            rebuilds replay the same join order.
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

    def __post_init__(self) -> None:
        if self.n_repositories < 1:
            raise ConfigurationError("n_repositories must be >= 1")
        if self.n_routers < 0:
            raise ConfigurationError("n_routers must be >= 0")
        if self.n_items < 1:
            raise ConfigurationError("n_items must be >= 1")
        if self.trace_samples < 2:
            raise ConfigurationError("trace_samples must be >= 2")
        if self.comp_delay_ms < 0:
            raise ConfigurationError("comp_delay_ms must be >= 0")
        if self.link_delay_mean_ms < 0:
            raise ConfigurationError("link_delay_mean_ms must be >= 0")
        if self.comm_target_ms is not None and self.comm_target_ms < 0:
            raise ConfigurationError("comm_target_ms must be >= 0 when set")
        if self.offered_degree < 1:
            raise ConfigurationError("offered_degree must be >= 1")
        if not 0.0 <= self.t_percent <= 100.0:
            raise ConfigurationError("t_percent must be in [0, 100]")
        if self.interest_fraction_f <= 0:
            raise ConfigurationError("interest_fraction_f must be positive")
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
        if self.clients_per_repository < 0:
            raise ConfigurationError("clients_per_repository must be >= 0")
        if self.churn is not None and not isinstance(self.churn, ChurnSchedule):
            raise ConfigurationError(
                f"churn must be a ChurnSchedule or None, got {type(self.churn).__name__}"
            )
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
        if self.churn is not None and not self.churn:
            # An empty schedule is exactly static membership; normalise
            # so both spellings share one graph-construction path (and
            # one hash bucket in sweep merging).
            object.__setattr__(self, "churn", None)
        if self.failures is not None and not isinstance(self.failures, FailureSchedule):
            raise ConfigurationError(
                "failures must be a FailureSchedule or None, got "
                f"{type(self.failures).__name__}"
            )
        if self.failures is not None and not self.failures:
            # An empty schedule is exactly the reliable network;
            # normalise for the same single-path/hash-bucket reasons.
            object.__setattr__(self, "failures", None)
        if self.failures is not None:
            self.failures.validate_nodes(self.n_repositories)
        if self.adaptive is not None and not isinstance(self.adaptive, AdaptivePolicy):
            raise ConfigurationError(
                "adaptive must be an AdaptivePolicy or None, got "
                f"{type(self.adaptive).__name__}"
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
