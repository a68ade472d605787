"""Distributed live fleet: the d3g sharded across worker processes.

The fleet runs the same sans-io nodes as the single-process live layer
(:mod:`repro.live.nodes`), but spread over N worker processes, each
hosting a shard of the repositories (each serving its own modeled
clients), speaking the hardened wire protocol of
:mod:`repro.live.protocol` over worker-to-worker TCP links -- the links,
send queues, frame server and due-time pacing of the shared socket
runtime (:mod:`repro.live.wire`), which the single-process TCP
transport drives too:

- :mod:`repro.fleet.sharding` -- deterministic shard assignment from
  the frozen config's dissemination graph;
- :mod:`repro.fleet.antientropy` -- setdiscovery-style sampled resync
  of a repository against its parent after a severed link;
- :mod:`repro.fleet.worker` -- the per-process driver of that runtime
  (shard routing, supervisor pipe, anti-entropy sessions, report);
- :mod:`repro.fleet.quiescence` -- when the run is over: the
  four-counter termination rule over the workers' snapshots, sans-io;
- :mod:`repro.fleet.supervisor` -- process orchestration, the
  event-driven control loop and the fleet-wide merged
  :class:`~repro.live.harness.LiveRunResult`.
"""

from repro.fleet.antientropy import (
    AntiEntropyCost,
    ChildSession,
    ParentView,
    full_transfer_cost,
    heads_digest,
    run_resync,
)
from repro.fleet.sharding import ShardPlan, plan_shards
from repro.fleet.supervisor import merge_reports, run_fleet
from repro.fleet.worker import WorkerReport

__all__ = [
    "AntiEntropyCost",
    "ChildSession",
    "ParentView",
    "ShardPlan",
    "WorkerReport",
    "full_transfer_cost",
    "heads_digest",
    "merge_reports",
    "plan_shards",
    "run_fleet",
    "run_resync",
]
