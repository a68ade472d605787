"""Property-based reconciliation: span sums equal ``CostCounters``.

For any policy, any seeded loss probability, any failure schedule,
churn or adaptive configuration, the span stream recorded by an
attached :class:`~repro.obs.trace.TraceRecorder` must re-derive the
run's message economy exactly -- and recording it must leave the result
bit-identical.  This is the trace layer's conservation law: every
charged message/check/drop/delivery appears as exactly one span.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from example_counts import examples
from repro.core.dissemination import available_policies
from repro.engine.adaptive import AdaptivePolicy
from repro.engine.churn import schedule_for_config
from repro.engine.config import SCALE_PRESETS
from repro.engine.failures import failures_for_config
from repro.engine.simulation import run_simulation
from repro.obs.trace import TraceRecorder

#: Small grid so each drawn example simulates in tens of milliseconds.
BASE = SCALE_PRESETS["tiny"].with_(
    n_repositories=8, n_routers=24, n_items=2, trace_samples=120
)


def _assert_reconciled(config):
    untraced = run_simulation(config)
    recorder = TraceRecorder(policy=config.policy)
    traced = run_simulation(config, observer=recorder)
    assert traced == untraced
    totals = recorder.totals()
    counters = traced.counters
    assert totals.messages == counters.messages
    assert totals.source_checks == counters.source_checks
    assert totals.repository_checks == counters.repository_checks
    assert totals.deliveries == counters.deliveries
    assert totals.drops == counters.drops


@settings(max_examples=examples(12), deadline=None)
@given(
    policy=st.sampled_from(available_policies()),
    kernel=st.sampled_from(["scalar", "vectorized"]),
    loss=st.sampled_from([0.0, 0.05, 0.2]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_spans_reconcile_under_loss(policy, kernel, loss, seed):
    _assert_reconciled(
        BASE.with_(
            policy=policy, kernel=kernel,
            message_loss_probability=loss, seed=seed,
        )
    )


@settings(max_examples=examples(8), deadline=None)
@given(
    kernel=st.sampled_from(["scalar", "vectorized"]),
    crashes=st.integers(min_value=0, max_value=3),
    partitions=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_spans_reconcile_under_failures(kernel, crashes, partitions, seed):
    config = BASE.with_(kernel=kernel, seed=seed)
    config = config.with_(
        failures=failures_for_config(
            config, crashes=crashes, partitions=partitions
        )
    )
    _assert_reconciled(config)


@settings(max_examples=examples(6), deadline=None)
@given(
    joins=st.integers(min_value=0, max_value=2),
    departs=st.integers(min_value=0, max_value=2),
    updates=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_spans_reconcile_under_churn(joins, departs, updates, seed):
    # Churn is a scalar-kernel feature.
    config = BASE.with_(kernel="scalar", seed=seed)
    config = config.with_(
        churn=schedule_for_config(
            config, joins=joins, departs=departs, updates=updates
        )
    )
    _assert_reconciled(config)


@settings(max_examples=examples(6), deadline=None)
@given(
    window=st.sampled_from([20.0, 40.0]),
    threshold=st.sampled_from([0.5, 0.9]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_spans_reconcile_under_adaptive(window, threshold, seed):
    config = BASE.with_(
        kernel="scalar", seed=seed,
        adaptive=AdaptivePolicy(window=window, threshold=threshold),
    )
    _assert_reconciled(config)
