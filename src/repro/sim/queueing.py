"""Single-server FIFO stations.

The paper charges a fixed *computational delay* (12.5 ms by default) for
every (update, dependent) pair a node handles: the coherency check plus
preparing the message for transmission (Section 6.1).  Because this work
is serialised at a node, a repository with many dependents -- or the
source serving everyone directly -- becomes a bottleneck.  That queueing
is exactly what produces the rising arm of the paper's U-shaped
fidelity-vs-cooperation curve (Figure 3) and the source saturation of
Figures 5 and 6.

:class:`FifoStation` models this with O(1) state: a ``busy_until``
watermark.  Work submitted at time ``t`` starts at ``max(t, busy_until)``
and completes ``service_time`` later.
"""

from __future__ import annotations

from repro.errors import SimulationError

__all__ = ["FifoStation"]


class FifoStation:
    """A single-server queue with deterministic service times.

    The station does not hold callbacks; it is a pure time calculator.
    Callers submit work and receive the completion time, then schedule
    their own follow-up events on the kernel.
    """

    def __init__(self) -> None:
        self._busy_until = 0.0

    def submit(self, arrival: float, service_time: float) -> float:
        """Enqueue one job and return its completion time.

        Args:
            arrival: Simulated time the job arrives at the station.
            service_time: Server time the job consumes (seconds, >= 0).

        Returns:
            The simulated time at which the job finishes service.

        Raises:
            SimulationError: on negative or NaN arrival or service times.
        """
        if not arrival >= 0:
            raise SimulationError(f"arrival must be non-negative, got {arrival!r}")
        if not service_time >= 0:
            raise SimulationError(
                f"service_time must be non-negative, got {service_time!r}"
            )
        start = arrival if arrival > self._busy_until else self._busy_until
        completion = start + service_time
        self._busy_until = completion
        return completion
