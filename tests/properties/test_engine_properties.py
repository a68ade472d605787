"""Property-based tests of end-to-end engine invariants.

These drive the full engine (tiny workloads) over hypothesis-chosen
configurations and check invariants that must hold regardless of the
parameter point: accounting identities, fidelity bounds, and the
zero-delay fidelity theorem across seeds.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from example_counts import examples
from repro.engine.builder import build_setup
from repro.engine.config import SimulationConfig
from repro.engine.oracle import DisseminationSimulation
from repro.engine.simulation import VectorizedSimulation, run_simulation

_BASE = dict(
    n_repositories=8,
    n_routers=20,
    n_items=3,
    trace_samples=150,
)


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    t=st.sampled_from([0.0, 50.0, 100.0]),
    degree=st.integers(min_value=1, max_value=8),
    policy=st.sampled_from(["distributed", "centralized", "flooding", "eq3_only"]),
)
@settings(max_examples=examples(25), deadline=None)
def test_accounting_identities_hold_everywhere(seed, t, degree, policy):
    config = SimulationConfig(
        seed=seed, t_percent=t, offered_degree=degree, policy=policy, **_BASE
    )
    result = run_simulation(config)
    assert 0.0 <= result.loss_of_fidelity <= 100.0
    assert result.counters.deliveries == result.counters.messages
    assert result.counters.drops == 0
    assert set(result.per_repository_loss) == set(range(1, 9))
    # Every message was preceded by at least one check somewhere.
    counters = result.counters
    assert counters.source_checks + counters.repository_checks >= counters.messages


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=examples(15), deadline=None)
def test_zero_delay_theorem_across_seeds(seed):
    """The 100%-fidelity guarantee holds for every random workload."""
    config = SimulationConfig(
        seed=seed,
        t_percent=80.0,
        offered_degree=3,
        policy="distributed",
        comm_target_ms=0.0,
        comp_delay_ms=0.0,
        **_BASE,
    )
    assert run_simulation(config).loss_of_fidelity == 0.0


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    degree=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=examples(15), deadline=None)
def test_exact_policies_agree_on_message_volume(seed, degree):
    """Figure 11(b) across random workloads: message volumes agree.

    The band is degree-conditioned.  At degree >= 2 the d3g is bushy and
    shallow and the two exact policies land within the paper's ~1.0
    ratio (empirically [0.85, 1.23] over 95 sampled workloads; band
    0.75..1.35 keeps the original margin).  At degree == 1 the d3g
    degenerates to per-item *chains* as deep as the repository count;
    every non-source hop then has c_p > 0, so the distributed policy's
    Eq. (7) guard fires preemptive forwards at every level while the
    centralised source still sends only on true violations.  The
    resulting extra distributed traffic compounds with depth: over 750+
    sampled degree-1 workloads on this 8-repository configuration the
    ratio spans [0.68, 1.11] (the Eq. (3)-only ablation confirms the gap
    is entirely Eq. (7): eq3_only message counts stay within ~10% of
    centralised).  Bound 0.55 leaves the same relative margin below the
    observed floor that 0.75 left for the bushy case.
    """
    base = SimulationConfig(
        seed=seed, t_percent=80.0, offered_degree=degree, **_BASE
    )
    dist = run_simulation(base.with_(policy="distributed"))
    central = run_simulation(base.with_(policy="centralized"))
    if dist.messages and central.messages:
        ratio = central.messages / dist.messages
        lower = 0.55 if degree == 1 else 0.75
        assert lower < ratio < 1.35


def test_message_volume_divergence_is_eq7_regression():
    """Regression: the seed/degree pair Hypothesis found (seed=3913,
    degree=1, ratio ~0.74) is genuine Eq. (7) chain overhead, not a
    policy bug: dropping the guard (eq3_only) closes the gap with the
    centralised count."""
    base = SimulationConfig(
        seed=3913, t_percent=80.0, offered_degree=1, **_BASE
    )
    dist = run_simulation(base.with_(policy="distributed"))
    central = run_simulation(base.with_(policy="centralized"))
    eq3 = run_simulation(base.with_(policy="eq3_only"))
    # The distributed policy sends more than centralised on deep chains...
    assert dist.messages > central.messages
    assert 0.55 < central.messages / dist.messages < 0.75
    # ...and the surplus is exactly the preemptive Eq. (7) forwards.
    assert central.messages / eq3.messages < 1.15
    assert dist.messages - eq3.messages > 0


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    loss=st.floats(min_value=0.05, max_value=0.9),
    policy=st.sampled_from(["distributed", "centralized"]),
)
@settings(max_examples=examples(15), deadline=None)
def test_loss_accounting_identities_hold_under_drops(seed, loss, policy):
    """The Figure 11 accounting generalises to lossy networks: every
    message is either delivered or dropped, never both or neither."""
    config = SimulationConfig(
        seed=seed,
        t_percent=80.0,
        offered_degree=3,
        policy=policy,
        message_loss_probability=loss,
        **_BASE,
    )
    result = run_simulation(config)
    assert result.counters.drops >= 0
    assert (
        result.counters.deliveries + result.counters.drops
        == result.counters.messages
    )
    assert 0.0 <= result.loss_of_fidelity <= 100.0


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    policy=st.sampled_from(["distributed", "centralized", "flooding", "eq3_only"]),
    loss=st.sampled_from([0.0, 0.1]),
    clients=st.sampled_from([0, 12]),
    degree=st.integers(min_value=1, max_value=_BASE["n_repositories"]),
)
@settings(max_examples=examples(40), deadline=None)
def test_batch_engine_equals_the_oracle_log_by_log(seed, policy, loss, clients, degree):
    """Static runs, where the batch engine applies a delivery to a pair
    with no dependents at the push site: from per-item chains (degree 1)
    to no cooperation (every delivery lands, the heap stays empty), each
    pair's log must equal the scalar oracle's entry for entry -- a
    reordered log can still score the same loss -- and stay in arrival
    order."""
    setup = build_setup(
        SimulationConfig(
            seed=seed,
            t_percent=80.0,
            offered_degree=degree,
            policy=policy,
            message_loss_probability=loss,
            clients_per_repository=clients,
            **_BASE,
        )
    )
    scalar, batch = DisseminationSimulation(setup), VectorizedSimulation(setup)
    expected, result = scalar.run(), batch.run()
    for pair in expected.extras["per_pair_loss"]:
        log = batch.delivery_log(*pair)
        assert log == scalar.delivery_log(*pair)
        times = [t for t, _value in log]
        assert times == sorted(times)
    assert {k: v.hex() for k, v in result.extras["per_pair_loss"].items()} == {
        k: v.hex() for k, v in expected.extras["per_pair_loss"].items()
    }
    assert result.events_processed == expected.events_processed
    for field in ("deliveries", "drops", "client_checks", "client_messages"):
        assert getattr(result.counters, field) == getattr(expected.counters, field)
    assert result == expected
