"""Golden determinism tests: tracing must not perturb results.

The observer contract (:mod:`repro.obs.trace`) promises that attaching
a recorder is invisible to the run: every hook site only *records* a
decision already made.  These tests pin the strongest readable form of
that promise -- full ``SimulationResult`` dataclass equality between a
traced and an untraced run -- on the scalar kernel, the vectorized
kernel and the live in-process transport, plus exact reconciliation of
the span economy against ``CostCounters``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.dissemination import available_policies
from repro.engine.config import SCALE_PRESETS
from repro.engine.failures import failures_for_config
from repro.engine.simulation import run_simulation
from repro.engine.churn import schedule_for_config
from repro.live.harness import build_live_network, run_live
from repro.obs.trace import TraceRecorder

BASE = SCALE_PRESETS["tiny"].with_(
    n_repositories=8, n_routers=24, n_items=3, trace_samples=150
)


def _reconciled(recorder: TraceRecorder, counters) -> None:
    totals = recorder.totals()
    assert totals.messages == counters.messages
    assert totals.source_checks == counters.source_checks
    assert totals.repository_checks == counters.repository_checks
    assert totals.deliveries == counters.deliveries
    assert totals.drops == counters.drops


@pytest.mark.parametrize("kernel", ["scalar", "vectorized"])
@pytest.mark.parametrize("policy", available_policies())
def test_traced_run_is_bit_identical_and_reconciles(kernel, policy):
    config = BASE.with_(policy=policy, kernel=kernel)
    untraced = run_simulation(config)
    recorder = TraceRecorder(policy=policy)
    traced = run_simulation(config, observer=recorder)
    assert traced == untraced  # full dataclass equality, extras included
    assert len(recorder) > 0
    _reconciled(recorder, traced.counters)


@pytest.mark.parametrize("kernel", ["scalar", "vectorized"])
def test_traced_failure_run_is_bit_identical_and_reconciles(kernel):
    config = BASE.with_(kernel=kernel, message_loss_probability=0.05, seed=7)
    config = config.with_(
        failures=failures_for_config(config, crashes=2, partitions=1)
    )
    untraced = run_simulation(config)
    recorder = TraceRecorder(policy=config.policy)
    traced = run_simulation(config, observer=recorder)
    assert traced == untraced
    _reconciled(recorder, traced.counters)
    assert any(ev.kind == "drop" for ev in recorder.events)


def _span_multiset(config, kernel):
    recorder = TraceRecorder(policy=config.policy)
    run_simulation(config.with_(kernel=kernel), observer=recorder)
    return sorted(
        (ev.kind, ev.update_id, ev.item_id, ev.time, ev.node, ev.dst,
         ev.forwarded, ev.reason or "")
        for ev in recorder.events
    )


def test_scalar_and_vectorized_emit_identical_span_multisets():
    """Same update ids, same hops, same decisions -- kernel-independent."""
    assert _span_multiset(BASE, "scalar") == _span_multiset(BASE, "vectorized")


def test_span_multisets_agree_under_loss_crashes_and_partitions():
    """The drop path is where the kernels differ most in shape (per
    message on the scalar one, per cohort and reason on the batch one);
    the spans must not show it."""
    config = BASE.with_(message_loss_probability=0.05, seed=7)
    config = config.with_(
        failures=failures_for_config(config, crashes=2, partitions=2)
    )
    spans = _span_multiset(config, "vectorized")
    assert spans == _span_multiset(config, "scalar")
    drop_reasons = {span[-1] for span in spans if span[0] == "drop"}
    assert drop_reasons == {"loss", "partition", "crash"}


@pytest.mark.live
def test_traced_live_inprocess_is_identical_and_reconciles():
    config = BASE
    untraced = run_live(config, "inprocess")
    recorder = TraceRecorder(policy=config.policy)
    network = build_live_network(config)
    network.attach_observer(recorder)
    traced = run_live(config, "inprocess", network=network)
    normalize = lambda r: dataclasses.replace(r, wall_seconds=0.0)  # noqa: E731
    assert normalize(traced) == normalize(untraced)
    _reconciled(recorder, traced.counters)


@pytest.mark.live
def test_live_and_scalar_trace_ids_agree():
    """seq - 1 on the live plane IS the engine's schedule index."""
    sim_recorder = TraceRecorder(policy=BASE.policy)
    run_simulation(BASE.with_(kernel="scalar"), observer=sim_recorder)

    live_recorder = TraceRecorder(policy=BASE.policy)
    network = build_live_network(BASE)
    network.attach_observer(live_recorder)
    run_live(BASE, "inprocess", network=network)

    def forwards(recorder):
        return {
            (ev.update_id, ev.item_id, ev.node, ev.dst)
            for ev in recorder.events
            if ev.kind == "forward"
        }

    assert forwards(sim_recorder) == forwards(live_recorder)


def test_traced_churn_run_is_bit_identical():
    config = BASE.with_(kernel="scalar")
    config = config.with_(
        churn=schedule_for_config(config, joins=1, departs=1, updates=1)
    )
    untraced = run_simulation(config)
    recorder = TraceRecorder(policy=config.policy)
    traced = run_simulation(config, observer=recorder)
    assert traced == untraced
    _reconciled(recorder, traced.counters)
