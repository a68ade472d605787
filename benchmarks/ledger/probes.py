"""Micro-probes: the per-call cost of one layer, measured in isolation.

Each probe drives one public function in a tight loop over inputs made
from the probe's own fixed stream (the cost per call does not depend on
the workload seed, and a fixed stream keeps the numbers comparable
between runs).  The loop overhead is part of every figure; it is the
same on both sides of any comparison.  Times are the median of
``BATCHES`` batches.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np

from benchmarks.ledger.harness import ROOT, median, timed

from repro.core.dissemination.filtering import EdgeFilter, forward_distributed_many
from repro.core.metrics import CostCounters
from repro.engine import SCALE_PRESETS, run_simulation
from repro.experiments.cache import fingerprint
from repro.fleet import run_resync
from repro.live import run_live
from repro.live.nodes import RepositoryNode
from repro.live.protocol import Forward, FrameAssembler, Update, encode_message
from repro.obs.trace import TraceRecorder
from repro.sim.kernel import BatchKernel, Simulator

BATCHES = 5


def _ops(n: int, scale: float) -> int:
    """``n`` operations, fewer under a test-only ``scale`` below 1."""
    return max(100, int(n * scale))


def _ns_per_op(batch, n_ops: int) -> float:
    """Median over batches of ``batch()`` wall time, per operation, in ns."""
    return median(timed(batch)[1] for _ in range(BATCHES)) / n_ops * 1e9


def _walk(n: int) -> list[float]:
    """A price-like random walk, the shape of value the filters see."""
    steps = np.random.default_rng(11).normal(0.0, 0.05, size=n)
    return (100.0 + np.cumsum(steps)).tolist()


def eventkernel_ns_per_event(scale: float = 1.0) -> float:
    """Schedule + pop + dispatch of one no-op event on the scalar kernel."""
    n = _ops(50_000, scale)

    def batch() -> None:
        kernel = Simulator()
        noop = lambda: None  # noqa: E731 - the cheapest possible callback
        for i in range(n):
            kernel.schedule_at(float(i), noop)
        kernel.run()

    return _ns_per_op(batch, n)


def batchkernel_ns_per_unit(scale: float = 1.0) -> float:
    """One unit through ``BatchKernel.drain``: half static, half pushed."""
    n = _ops(50_000, scale)
    static = np.arange(n // 2, dtype=np.float64)

    def batch() -> None:
        kernel = BatchKernel(static)
        for unit in kernel.drain():
            if type(unit) is int:
                kernel.push(kernel.now + 0.5, unit)

    return _ns_per_op(batch, 2 * (n // 2))


def filtering_decide_ns(scale: float = 1.0) -> float:
    """One ``EdgeFilter.decide`` under the distributed policy."""
    n = _ops(100_000, scale)
    values = _walk(n)

    def batch() -> None:
        edge = EdgeFilter("distributed", 0.08, 100.0)
        for value in values:
            edge.decide(value, 0.02)

    return _ns_per_op(batch, n)


def filtering_many_ns(width: int, scale: float = 1.0) -> float:
    """One ``forward_distributed_many`` call over ``width`` dependents."""
    n = _ops(20_000, scale)
    values = _walk(n)
    c_serve = np.random.default_rng(13).uniform(0.02, 0.5, size=width)

    def batch() -> None:
        last_sent = np.full(width, 100.0)
        for value in values:
            mask = forward_distributed_many(value, last_sent, c_serve, 0.02)
            last_sent[mask] = value

    return _ns_per_op(batch, n)


def on_message_ns(scale: float = 1.0, degree: int = 4) -> float:
    """One ``RepositoryNode.on_message`` with ``degree`` dependents."""
    n = _ops(20_000, scale)
    updates = [
        Update(item_id=0, value=value, tag=None, seq=seq + 1, src=0)
        for seq, value in enumerate(_walk(n))
    ]

    def batch() -> None:
        node = RepositoryNode(1, 0.0125, CostCounters(), {0: 0.02})
        node.deliveries[0] = []
        for child in range(degree):
            c_serve = 0.05 * (child + 1)
            node.add_edge(
                0, 2 + child, c_serve, EdgeFilter("distributed", c_serve, 100.0), 0.015
            )
        for now, update in enumerate(updates):
            node.on_message(update, float(now))

    return _ns_per_op(batch, n)


def protocol_costs(scale: float = 1.0) -> tuple[float, float, int]:
    """(encode ns, decode ns, frame bytes) of one ``Forward`` frame.

    ``Forward`` is the fleet's cross-worker envelope and carries every
    field of the single-process ``Update`` frame plus routing.
    """
    n = _ops(10_000, scale)
    messages = [
        Forward.from_update(
            7, 12.5 + seq, Update(item_id=3, value=value, tag=None, seq=seq + 1, src=2)
        )
        for seq, value in enumerate(_walk(n))
    ]
    frames: list[bytes] = []

    def encode() -> None:
        frames[:] = [encode_message(message) for message in messages]

    def decode() -> None:
        assembler = FrameAssembler()
        for frame in frames:
            assembler.feed(frame)

    encode_ns = _ns_per_op(encode, n)
    decode_ns = _ns_per_op(decode, n)
    return encode_ns, decode_ns, len(frames[0])


def fingerprint_us(scale: float = 1.0) -> float:
    """One ``fingerprint(config)`` -- the result cache's key derivation."""
    n = _ops(2_000, scale)
    config = SCALE_PRESETS["tiny"]

    def batch() -> None:
        for _ in range(n):
            fingerprint(config)

    return _ns_per_op(batch, n) / 1e3


def import_s(scale: float = 1.0) -> float:
    """``import repro`` in a fresh interpreter (what every fleet worker pays)."""
    reps = BATCHES if scale >= 1.0 else 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    bare = [sys.executable, "-c", "pass"]
    full = [sys.executable, "-c", "import repro"]

    def spawn(command: list[str]) -> float:
        return timed(lambda: subprocess.run(command, env=env, check=True))[1]

    return median(spawn(full) for _ in range(reps)) - median(
        spawn(bare) for _ in range(reps)
    )


def loaded_tiny(scale: float = 1.0):
    """The loaded tiny config the old shape checks used (12 items, 25 ms
    computation): small enough to run twice in a second, loaded enough
    that per-check hooks and per-hop latency show."""
    return SCALE_PRESETS["tiny"].with_(
        n_items=12, comp_delay_ms=25.0, trace_samples=_ops(500, scale)
    )


def obs_trace_overhead(scale: float = 1.0) -> tuple[float, int]:
    """(traced / untraced wall ratio, spans recorded) on the loaded tiny config."""
    config = loaded_tiny(scale)
    untraced = median(timed(lambda: run_simulation(config))[1] for _ in range(BATCHES))
    traced = []
    for _ in range(BATCHES):
        recorder = TraceRecorder()
        traced.append(timed(lambda: run_simulation(config, observer=recorder))[1])
    return median(traced) / untraced, len(recorder)


def resync_msgs(n_items: int = 256, n_lost: int = 3) -> int:
    """Messages the sampled anti-entropy spends on the golden rejoin."""
    child = {item: 100 for item in range(n_items)}
    parent = {item: (100, 1.0) for item in range(n_items)}
    for item in range(n_lost):
        child[item] = 60
        parent[item] = (100, 2.5)
    _missing, cost = run_resync(child, parent)
    return cost.messages


def tcp_excess_loss_pp(scale: float = 1.0, time_scale: float = 200.0) -> float:
    """TCP loss minus in-process loss at a fixed low rate, in points.

    At ~17% utilisation nothing queues, so the difference is the wall
    clock's per-hop latency expressed in the paper's unit.
    """
    config = loaded_tiny(scale)
    virtual = run_live(config, "inprocess")
    wire = run_live(config, "tcp", time_scale=time_scale)
    return wire.loss_of_fidelity - virtual.loss_of_fidelity
