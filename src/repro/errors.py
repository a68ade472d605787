"""Exception hierarchy for the ``repro`` library.

Every error raised deliberately by this package derives from
:class:`ReproError`, so callers can catch the whole family with one
``except`` clause while still distinguishing configuration mistakes from
runtime simulation faults.
"""


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """An experiment or component was configured with invalid parameters."""


class SimulationError(ReproError):
    """The discrete-event kernel was used incorrectly at runtime."""


class RefutedError(ReproError):
    """An experiment's result refutes the claim its ``check`` states."""


class TopologyError(ReproError):
    """A physical-network topology is malformed or cannot be generated."""


class TraceError(ReproError):
    """A data trace is malformed, empty, or otherwise unusable."""


class TreeConstructionError(ReproError):
    """LeLA could not place a repository into the dissemination graph."""


class DisseminationError(ReproError):
    """A dissemination policy was driven with inconsistent state."""
