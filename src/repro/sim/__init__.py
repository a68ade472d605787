"""Discrete-event simulation kernel.

This subpackage is the substrate every experiment in the reproduction
runs on.  It provides:

- :mod:`repro.sim.kernel` -- the :class:`~repro.sim.kernel.Simulator`,
  the one callback heap releasing callbacks in simulated-time order,
  and the object-free :class:`~repro.sim.kernel.BatchKernel`, the
  stand-alone statement of the merge the engine's loop runs inline.
- :mod:`repro.sim.queueing` -- single-server FIFO stations used to model
  the serialised per-dependent computational delay at repositories.
- :mod:`repro.sim.rng` -- seeded, named random streams so every
  experiment is reproducible.
"""

from repro.sim.kernel import BatchKernel, Simulator
from repro.sim.queueing import FifoStation
from repro.sim.rng import RandomStreams

__all__ = [
    "Simulator",
    "BatchKernel",
    "FifoStation",
    "RandomStreams",
]
