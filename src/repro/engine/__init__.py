"""End-to-end simulation engine.

Glues the substrates together: builds the physical network, the
workload's update traces and the interest profiles from a
:class:`~repro.engine.config.SimulationConfig`, constructs the ``d3g``
with LeLA, and drives the chosen dissemination policy through the
engine's flat loop (:mod:`repro.engine.simulation`; the per-event
reference it is checked against is :mod:`repro.engine.oracle`).  The
single entry point most callers need is
:func:`~repro.engine.simulation.run_simulation`.
"""

from repro.engine.adaptive import (
    AdaptiveController,
    AdaptivePolicy,
    DriftEstimator,
    parse_adaptive_spec,
)
from repro.engine.churn import (
    ChurnEvent,
    ChurnSchedule,
    schedule_for_config,
    synthetic_schedule,
)
from repro.engine.config import KERNELS, SCALE_PRESETS, SimulationConfig
from repro.engine.builder import (
    SimulationSetup,
    build_setup,
    make_adaptive_controller,
    make_membership,
)
from repro.engine.failures import (
    FailureEvent,
    FailureSchedule,
    failures_for_config,
    synthetic_failures,
)
from repro.engine.oracle import DisseminationSimulation
from repro.engine.results import SimulationResult
from repro.engine.simulation import (
    VectorizedSimulation,
    make_simulation,
    run_simulation,
)
from repro.engine.sweep import resolve_jobs, run_sweep

__all__ = [
    "SimulationConfig",
    "SCALE_PRESETS",
    "KERNELS",
    "SimulationSetup",
    "build_setup",
    "make_membership",
    "SimulationResult",
    "DisseminationSimulation",
    "VectorizedSimulation",
    "make_simulation",
    "run_simulation",
    "resolve_jobs",
    "run_sweep",
    "ChurnEvent",
    "ChurnSchedule",
    "schedule_for_config",
    "synthetic_schedule",
    "FailureEvent",
    "FailureSchedule",
    "failures_for_config",
    "synthetic_failures",
    "AdaptiveController",
    "AdaptivePolicy",
    "DriftEstimator",
    "make_adaptive_controller",
    "parse_adaptive_spec",
]
