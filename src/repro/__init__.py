"""repro -- a reproduction of *Maintaining Coherency of Dynamic Data in
Cooperating Repositories* (Shah, Ramamritham, Shenoy; VLDB 2002).

The package implements the paper's full stack from scratch:

- :mod:`repro.sim` -- discrete-event simulation kernel,
- :mod:`repro.network` -- random physical topologies, Pareto link
  delays, shortest-path routing between the logical nodes,
- :mod:`repro.traces` -- synthetic stock-price traces calibrated to the
  paper's Table 1,
- :mod:`repro.workloads` -- pluggable update-stream workloads (Table 1
  default, flash crowds, diurnal cycles, CSV trace replay),
- :mod:`repro.core` -- the contribution: LeLA tree construction, the
  Eq. (2) degree-of-cooperation heuristic, the distributed/centralised
  dissemination algorithms, and the fidelity metric,
- :mod:`repro.engine` -- the end-to-end simulation,
- :mod:`repro.experiments` -- one module per table/figure in the paper.

Quickstart::

    from repro.engine import SCALE_PRESETS, run_simulation

    config = SCALE_PRESETS["tiny"].with_(t_percent=80.0, offered_degree=4)
    result = run_simulation(config)
    print(result.summary())
"""

from repro.engine import SCALE_PRESETS, SimulationConfig, run_simulation
from repro.errors import (
    ConfigurationError,
    DisseminationError,
    ReproError,
    SimulationError,
    TopologyError,
    TraceError,
    TreeConstructionError,
)

__version__ = "1.0.0"

__all__ = [
    "SCALE_PRESETS",
    "SimulationConfig",
    "run_simulation",
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "TopologyError",
    "TraceError",
    "TreeConstructionError",
    "DisseminationError",
    "__version__",
]
