"""Benchmark: sharded fleet vs single-process TCP delivery capacity.

The same loaded tiny-preset workload is replayed twice over real
sockets at an aggressive time scale -- once through the single-process
TCP transport (one event loop realises every delivery), once through a
two-worker fleet (each worker's loop realises only its shard).  Both
paths reproduce the exact same logical message sequence, so the
comparison isolates transport capacity:

- **agreement**: the fleet replays the same wire count as both
  single-process transports, and both socket planes score fidelity
  within 0.5 pp of the in-process reference -- sharding changes where
  work runs, never what happens;
- **capacity**: at two workers the fleet's steady-state delivery rate
  must at least match the single process.  The fleet rate is scored
  over the replay window (``start`` command to quiescence); the N
  redundant config rebuilds happen before it and amortise over run
  length, so they are deliberately excluded.

Sizing: the fleet's window carries no fixed wait of its own any more --
the epoch is the ``start`` command and the supervisor ends the run one
pipe round trip after the last worker reports itself idle (it used to
hold a 0.25 s start barrier and two 0.1 s quiescence polls, ~0.45 s,
and the run was sized at 8000 samples to drown them).  What still has
to be true is that delivery work, not schedule pacing, decides the
inequality: 4000 samples at 40 000x is ~116 000 deliveries and a 0.1 s
pacing floor against ~1.1 s of single-process work.  Ten readings on
two cores: fleet/single 1.41-2.30 (0.56-0.74 s windows, 158-209 k
against 88-114 k deliveries/s), where the polling supervisor read
1.06-1.15 at this size and 1.28-1.48 at 8000; 8000 now reads 1.32-1.98,
no better a margin for twice the time, so the run is the shorter one.
At 500 samples and 2000x the single process finishes in ~0.3 s against
a 0.25 s floor and the gate would compare pacing with pacing.

Skipped on boxes without two cores (the claim is about parallelism) or
without localhost sockets.
"""

from __future__ import annotations

import json
import os
import pathlib
import socket

import pytest

from benchmarks.conftest import BENCH_OVERRIDES
from repro.engine import SCALE_PRESETS
from repro.fleet import run_fleet
from repro.live import run_live

#: Simulated seconds per wall second: high enough that delivery work,
#: not schedule pacing, bounds the rate (see Sizing above).
TIME_SCALE = 40_000.0

WORKERS = 2


def _config():
    return SCALE_PRESETS["tiny"].with_(**{**BENCH_OVERRIDES, "trace_samples": 4000})


def _require_sockets():
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            probe.bind(("127.0.0.1", 0))
        finally:
            probe.close()
    except OSError as exc:  # pragma: no cover - sandboxed environments
        pytest.skip(f"cannot bind localhost sockets here: {exc}")


def bench_fleet_vs_single_process(benchmark):
    if (os.cpu_count() or 1) < WORKERS:
        pytest.skip(f"fleet capacity claim needs >= {WORKERS} cores")
    _require_sockets()
    config = _config()

    # Ground truth for fidelity: the deterministic in-process transport.
    reference = run_live(config, "inprocess")
    single = run_live(config, "tcp", time_scale=TIME_SCALE)
    assert single.conserved and single.dropped == 0
    assert abs(single.loss_of_fidelity - reference.loss_of_fidelity) <= 0.5

    fleet = benchmark.pedantic(
        run_fleet,
        args=(config,),
        kwargs=dict(workers=WORKERS, time_scale=TIME_SCALE),
        rounds=1,
        iterations=1,
    )
    assert fleet.conserved and fleet.dropped == 0
    # Same logical run: identical wire volume, near-identical fidelity.
    assert fleet.sent == single.sent == reference.sent
    assert abs(fleet.loss_of_fidelity - reference.loss_of_fidelity) <= 0.5

    single_rate = single.delivered / single.wall_seconds
    fleet_rate = fleet.delivered / fleet.extras["worker_wall_seconds"]
    benchmark.extra_info["single_deliveries_per_s"] = round(single_rate)
    benchmark.extra_info["fleet_deliveries_per_s"] = round(fleet_rate)
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["speedup"] = round(fleet_rate / single_rate, 2)

    _write_artifact(
        "bench_fleet.json",
        {
            "workers": WORKERS,
            "time_scale": TIME_SCALE,
            "single_deliveries_per_s": round(single_rate),
            "fleet_deliveries_per_s": round(fleet_rate),
            "speedup": round(fleet_rate / single_rate, 3),
            "sent": fleet.sent,
            "loss_of_fidelity": fleet.loss_of_fidelity,
        },
    )

    assert fleet_rate >= single_rate, (
        f"a {WORKERS}-worker fleet moved {fleet_rate:.0f} deliveries/s "
        f"against {single_rate:.0f}/s single-process; sharding made the "
        "live plane slower"
    )


def _write_artifact(name: str, payload: dict) -> None:
    out_dir = pathlib.Path(os.environ.get("BENCH_ARTIFACT_DIR", "."))
    (out_dir / name).write_text(json.dumps(payload, indent=2) + "\n")
