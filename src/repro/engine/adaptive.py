"""Online adaptive re-optimization of the dissemination graph.

The paper builds the LeLA ``d3g`` once, from static interest profiles
(Section 4), and re-applies the algorithm only when *requirements*
change.  The workload subsystem (``flash_crowd``, ``diurnal``) generates
traffic drift a static graph is blind to: a subtree sized for the
calibration traffic becomes a hotspot when its items burst.  This module
closes the loop -- it watches the per-node traffic the running kernel
already counts, estimates drift over sliding windows, and when the drift
exceeds a configurable threshold it re-runs LeLA with the observed load
folded into the level ranking (:func:`repro.core.lela.build_d3g` with
``node_load``) and applies only the edge-level
:class:`~repro.core.dynamics.ReconfigurationDiff` through the same
live-rewiring path churn and failover use.  Every applied rewire is
charged into ``CostCounters.reconfigurations`` /
``edges_added`` / ``edges_removed`` -- adaptation pays for itself
honestly in the cost model.

Determinism contract: the controller consumes only per-node cumulative
message counts at kernel-scheduled tick instants, and both kernels
process the identical event set before any tick fires (ticks win
same-instant ties against trace deliveries, exactly like failure
events).  The re-optimization itself replays LeLA over the original
insertion order with a fresh ``lela`` stream seeded from the config, so
a :class:`~repro.engine.config.SimulationConfig` carrying an
:class:`AdaptivePolicy` still *fully determines* its result -- scalar,
vectorized and the live in-process transport all make bit-identical
rewiring decisions.

The controller proposes graphs; it does not wire them.  In a run that
also churns or fails, the reconfiguration core
(:mod:`repro.engine.reconfig`) rebinds :attr:`AdaptiveController.graph`
and :attr:`AdaptiveController.profiles` to the current graph and members
before each tick, and wires what comes back by the same rule as a churn
rebuild (the interaction matrix is documented in
``docs/architecture/adaptive.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

import math

from repro.core.dynamics import ReconfigurationDiff, edges_of
from repro.core.lela import build_d3g
from repro.core.preference import get_preference_function
from repro.errors import ConfigurationError
from repro.sim.rng import RandomStreams

__all__ = [
    "AdaptivePolicy",
    "DriftEstimator",
    "AdaptiveController",
    "parse_adaptive_spec",
]

#: Recognised re-optimization scopes.
SCOPES = ("subtree", "global")


@dataclass(frozen=True)
class AdaptivePolicy:
    """Frozen, hashable spec of one adaptive re-optimization policy.

    Carried inside :class:`~repro.engine.config.SimulationConfig`
    (``adaptive=``), so it participates in config hashing, sweep
    dedup and the experiment result cache like every other knob.

    Attributes:
        window: Sliding-window length in simulated seconds.  The
            controller ticks at ``window, 2*window, ...`` and compares
            consecutive windows of per-node traffic.
        threshold: Relative drift that triggers re-optimization: a node
            is *hot* when its window-over-window message count changed
            by at least this fraction (``0.75`` = 75%).
        cooldown: Minimum simulated seconds between two *applied*
            rewires.  ``0`` disables the brake.
        scope: ``"subtree"`` feeds only the hot nodes' observed load
            into LeLA's level ranking (re-homing concentrates around
            the drifting subtree); ``"global"`` feeds every node's
            drift, allowing the whole graph to rebalance.
        max_rewires: Cap on applied rewires per run; ``0`` = unlimited.
    """

    window: float = 60.0
    threshold: float = 0.75
    cooldown: float = 0.0
    scope: str = "subtree"
    max_rewires: int = 8

    def __post_init__(self) -> None:
        if not (isinstance(self.window, (int, float)) and math.isfinite(self.window)) or self.window <= 0:
            raise ConfigurationError(
                f"adaptive window must be finite and > 0, got {self.window!r}"
            )
        if not (isinstance(self.threshold, (int, float)) and math.isfinite(self.threshold)) or self.threshold <= 0:
            raise ConfigurationError(
                f"adaptive threshold must be finite and > 0, got {self.threshold!r}"
            )
        if not (isinstance(self.cooldown, (int, float)) and math.isfinite(self.cooldown)) or self.cooldown < 0:
            raise ConfigurationError(
                f"adaptive cooldown must be finite and >= 0, got {self.cooldown!r}"
            )
        if self.scope not in SCOPES:
            raise ConfigurationError(
                f"adaptive scope must be one of {SCOPES}, got {self.scope!r}"
            )
        if not isinstance(self.max_rewires, int) or self.max_rewires < 0:
            raise ConfigurationError(
                f"adaptive max_rewires must be an int >= 0, got {self.max_rewires!r}"
            )
        object.__setattr__(self, "window", float(self.window))
        object.__setattr__(self, "threshold", float(self.threshold))
        object.__setattr__(self, "cooldown", float(self.cooldown))


class DriftEstimator:
    """Window-over-window relative drift of per-node traffic.

    Fed *cumulative* per-node message counts at each tick, it
    differences them into per-window counts and reports, per node, the
    relative change between the two most recent windows:

    ``drift[n] = |w_cur[n] - w_prev[n]| / max(w_prev[n], 1)``

    The first window establishes the baseline (no drift reported), so a
    stationary workload -- equal counts every window -- never drifts.
    Pure-python integer arithmetic on sorted node ids keeps the
    estimate bit-identical across kernels.
    """

    def __init__(self) -> None:
        self._cumulative: dict[int, int] = {}
        self._window: dict[int, int] | None = None

    def observe(self, cumulative: dict[int, int]) -> dict[int, float]:
        """Fold in one tick's cumulative counts; return per-node drift.

        Returns only strictly positive drifts (``{}`` on the baseline
        window and for stationary traffic).
        """
        window = {
            node: int(count) - self._cumulative.get(node, 0)
            for node, count in cumulative.items()
            if int(count) - self._cumulative.get(node, 0) != 0
        }
        self._cumulative = {node: int(count) for node, count in cumulative.items()}
        previous, self._window = self._window, window
        if previous is None:
            return {}
        drifts: dict[int, float] = {}
        for node in sorted(set(previous) | set(window)):
            w_prev = previous.get(node, 0)
            w_cur = window.get(node, 0)
            drift = abs(w_cur - w_prev) / max(w_prev, 1)
            if drift > 0:
                drifts[node] = drift
        return drifts


class AdaptiveController:
    """Drift-triggered LeLA re-optimization over a built setup.

    One controller instance belongs to one run (scalar kernel,
    vectorized kernel or live network); it owns the *current* graph --
    initially ``setup.graph``, rebound on every applied rewire -- while
    the setup itself stays read-only and shareable.

    Attributes:
        graph: The current dissemination graph (never mutated in place;
            rebuilds rebind it).
        profiles: The members LeLA re-runs over, in insertion order
            (initially every repository, ascending).
        policy: The driving :class:`AdaptivePolicy`.
        ticks: Drift evaluations performed.
        triggered: Ticks whose drift crossed the threshold.
        rewires: Re-optimizations actually applied (non-empty diff,
            cooldown and cap permitting).
    """

    def __init__(self, setup, policy: AdaptivePolicy | None = None) -> None:
        config = setup.config
        self.policy = policy if policy is not None else config.adaptive
        if self.policy is None:
            raise ConfigurationError(
                "AdaptiveController needs an AdaptivePolicy (config.adaptive)"
            )
        self.graph = setup.graph
        self._source = setup.source
        self._delay_ms = setup.network.delay_ms
        self._degree = setup.effective_degree
        self._preference = get_preference_function(config.preference)
        self._p_percent = config.p_percent
        self._seed = config.seed
        self.profiles = [setup.profiles[r] for r in sorted(setup.profiles)]
        self._estimator = DriftEstimator()
        self._last_rewire: float | None = None
        self.ticks = 0
        self.triggered = 0
        self.rewires = 0
        #: Per-node drift values from the most recent tick -- telemetry
        #: only; nothing in the control loop reads it back.
        self.last_drifts: dict[int, float] = {}

    def tick_times(self, span: float) -> list[float]:
        """Tick instants inside the observation window: ``w, 2w, ...``.

        Computed by repeated addition (not multiplication) so every
        consumer -- both kernels and the live transport -- schedules the
        exact same floats.
        """
        times: list[float] = []
        t = self.policy.window
        while t <= span:
            times.append(t)
            t += self.policy.window
        return times

    def on_tick(self, now: float, per_node_messages: dict[int, int]) -> ReconfigurationDiff | None:
        """Evaluate drift at ``now``; return the diff to apply, if any.

        Args:
            now: Simulated time of the tick.
            per_node_messages: *Cumulative* per-node sent-message counts
                at this instant (``CostCounters.per_node_messages``).

        Returns:
            The edge-level diff of an applied re-optimization, or
            ``None`` when nothing crossed the threshold, the cooldown
            or rewire cap vetoed, or the rebuild changed no edges.
        """
        policy = self.policy
        self.ticks += 1
        drifts = self._estimator.observe(per_node_messages)
        self.last_drifts = drifts
        hot = [node for node in sorted(drifts) if drifts[node] >= policy.threshold]
        if not hot:
            return None
        self.triggered += 1
        if (
            self._last_rewire is not None
            and policy.cooldown > 0
            and now - self._last_rewire < policy.cooldown
        ):
            return None
        if policy.max_rewires and self.rewires >= policy.max_rewires:
            return None
        if policy.scope == "subtree":
            load = {node: drifts[node] for node in hot}
        else:
            load = dict(drifts)
        new_graph = build_d3g(
            profiles=self.profiles,
            source=self._source,
            comm_delay_ms=self._delay_ms,
            offered_degree=self._degree,
            preference=self._preference,
            p_percent=self._p_percent,
            rng=RandomStreams(self._seed).stream("lela"),
            node_load=load,
        )
        before = edges_of(self.graph)
        after = edges_of(new_graph)
        diff = ReconfigurationDiff(added=after - before, removed=before - after)
        if diff.unchanged_is_cheap:
            return None
        self.graph = new_graph
        self.rewires += 1
        self._last_rewire = now
        return diff


#: ``parse_adaptive_spec`` key -> (coercion, AdaptivePolicy field).
_SPEC_KEYS = {
    "window": float,
    "threshold": float,
    "cooldown": float,
    "scope": str,
    "max_rewires": int,
}


def parse_adaptive_spec(text: str) -> AdaptivePolicy:
    """Parse the CLI's ``--adaptive k=v,...`` spec into a policy.

    An empty spec (``""``) yields the default policy.  Example::

        window=40,threshold=0.5,scope=global,max_rewires=4

    Raises:
        ConfigurationError: on unknown keys or uncoercible values.
    """
    kwargs: dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or key not in _SPEC_KEYS:
            raise ConfigurationError(
                f"adaptive spec entries are KEY=VALUE with KEY in "
                f"{tuple(_SPEC_KEYS)}, got {part!r}"
            )
        try:
            kwargs[key] = _SPEC_KEYS[key](value.strip())
        except ValueError:
            raise ConfigurationError(
                f"adaptive spec value for {key!r} must be "
                f"{_SPEC_KEYS[key].__name__}, got {value.strip()!r}"
            ) from None
    return AdaptivePolicy(**kwargs)
