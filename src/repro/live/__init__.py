"""The live cooperative-repository network (:mod:`repro.live`).

The paper evaluated its design with a *real implementation* pushing
trace updates over an actual network; this package is that layer for
the reproduction.  It reuses the exact artefacts a simulation run is
built from -- the LeLA-built ``d3g``, the workload traces, the network
delays, and (via :mod:`repro.core.dissemination.filtering`) the very
same per-dependent forwarding rules and the engine's source tagger --
and executes them as a network of servers:

- :class:`~repro.live.nodes.SourceNode` replays a registered workload
  in real or time-scaled time;
- :class:`~repro.live.nodes.RepositoryNode` receives pushes, logs
  them, applies the shared coherency rule over its per-item edge
  columns (:class:`~repro.live.nodes.EdgeGroup`), and forwards along
  the ``d3g``; its modeled clients are served from that log at scoring
  time, by the same reconfiguration core as on every plane.

Node logic is sans-io: nodes consume updates and emit messages -- the
seven-field rows of a :class:`~repro.live.protocol.Forwards` frame, the
one message shape from node to socket and back -- and a wire drives
them.  Two single-process wires exist (:mod:`repro.live.transport`),
both drivers of the one runtime in :mod:`repro.live.wire`:
:class:`~repro.live.transport.VirtualWire` (the ``inprocess``
transport: virtual time, seeded delays -- bit-reproducible, used for
sim/live cross-validation) and :class:`~repro.live.transport.TcpWire`
(the ``tcp`` transport: real asyncio sockets on localhost speaking the
length-prefixed protocol of :mod:`repro.live.protocol`: packed rows for
data, JSON for control).  :func:`~repro.live.harness.run_live`
turns an unchanged :class:`~repro.engine.config.SimulationConfig` into
a running network and collects a
:class:`~repro.live.harness.LiveRunResult`, the engine's
:class:`~repro.engine.results.SimulationResult` plus the transport's
name and the wall time.
"""

from repro.live.harness import LiveRunResult, build_live_network, run_live

__all__ = ["LiveRunResult", "build_live_network", "run_live"]
