"""The live cooperative-repository network (:mod:`repro.live`).

The paper evaluated its design with a *real implementation* pushing
trace updates over an actual network; this package is that layer for
the reproduction.  It reuses the exact artefacts a simulation run is
built from -- the LeLA-built ``d3g``, the workload traces, the network
delays, and (via :mod:`repro.core.dissemination.filtering`) the very
same per-dependent coherency filter -- and executes them as a network
of servers:

- :class:`~repro.live.nodes.SourceNode` replays a registered workload
  in real or time-scaled time;
- :class:`~repro.live.nodes.RepositoryNode` receives pushes, applies
  the shared coherency filter per dependent, and forwards along the
  ``d3g``;
- :class:`~repro.live.nodes.ClientNode` attaches with per-item
  tolerances and measures *observed* fidelity.

Node logic is sans-io: nodes consume updates and emit messages -- the
seven-field rows of a :class:`~repro.live.protocol.Forwards` frame, the
one message shape from node to socket and back -- and a transport
drives them.  Two transports exist (:mod:`repro.live.transport`), both
drivers of the one runtime in :mod:`repro.live.wire`: a deterministic
in-process transport (virtual time, seeded delays -- bit-reproducible,
used for sim/live cross-validation) and localhost TCP (real asyncio
sockets speaking the length-prefixed protocol of
:mod:`repro.live.protocol`: packed rows for data, JSON for control).  :func:`~repro.live.harness.run_live`
turns an unchanged :class:`~repro.engine.config.SimulationConfig` into
a running network and collects a
:class:`~repro.live.harness.LiveRunResult` shaped like
:class:`~repro.engine.results.SimulationResult`.
"""

from repro.live.harness import LiveRunResult, build_live_network, run_live
from repro.live.loadgen import LoadgenReport, run_loadgen

__all__ = [
    "LiveRunResult",
    "build_live_network",
    "run_live",
    "LoadgenReport",
    "run_loadgen",
]
