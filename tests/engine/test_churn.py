"""Churn-scenario tests: mid-run membership dynamics in the engine.

Covers the ISSUE-2 acceptance criteria: golden-seed regressions for
join-only / depart-only / mixed schedules, message conservation
(``deliveries + drops == messages``) under churn, and serial-vs-parallel
bit-identity of churned sweeps.
"""

import pytest

from repro.engine.adaptive import AdaptivePolicy
from repro.engine.builder import build_setup
from repro.engine.churn import ChurnEvent, ChurnSchedule, schedule_for_config
from repro.engine.config import SCALE_PRESETS
from repro.engine.failures import failures_for_config
from repro.engine.simulation import VectorizedSimulation, run_simulation
from repro.engine.sweep import run_sweep
from repro.errors import ConfigurationError
from repro.workloads import FlashCrowdWorkload

BASE = SCALE_PRESETS["tiny"].with_(
    n_items=4, trace_samples=400, offered_degree=3, seed=3913
)


def churned(joins=0, departs=0, updates=0, **overrides):
    config = BASE.with_(**overrides) if overrides else BASE
    schedule = schedule_for_config(
        config, joins=joins, departs=departs, updates=updates
    )
    return config.with_(churn=schedule)


# ----------------------------------------------------------------------
# Golden-seed regressions: the mechanics (message counts, edge-level
# reconfiguration cost, surviving membership) are pinned at seed 3913;
# the fidelity float is asserted tightly but not bitwise, staying robust
# to platform-level numpy differences.
# ----------------------------------------------------------------------

GOLDEN = {
    "join-only": (dict(joins=3), 1.312943574667013, 3178, 3, 10, 3, 20),
    "depart-only": (dict(departs=3), 1.3800863064851803, 3406, 3, 34, 41, 17),
    "mixed": (dict(joins=2, departs=2, updates=2), 1.179585188685044, 2714, 6, 35, 36, 18),
}


def _assert_golden(name, **overrides):
    kwargs, loss, messages, reconf, added, removed, final = GOLDEN[name]
    result = run_simulation(churned(**kwargs, **overrides))
    assert result.loss_of_fidelity == pytest.approx(loss, rel=1e-9)
    assert result.counters.messages == messages
    assert result.counters.reconfigurations == reconf
    assert result.counters.edges_added == added
    assert result.counters.edges_removed == removed
    assert result.reconfiguration_cost == added + removed
    assert result.extras["final_members"] == final


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_seed_regression(name):
    _assert_golden(name)  # kernel="auto", which resolves to the vectorized kernel


@pytest.mark.parametrize("kernel", ["scalar", "vectorized"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_seed_regression_on_each_kernel(name, kernel):
    _assert_golden(name, kernel=kernel)


@pytest.mark.parametrize("policy", ["distributed", "centralized", "flooding", "eq3_only"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_schedules_run_bit_identically_on_the_vectorized_kernel(name, policy):
    """Loss, every counter field (reconfiguration cost and drops
    included) and the event count: full ``SimulationResult`` equality."""
    config = churned(
        **GOLDEN[name][0],
        policy=policy,
        message_loss_probability=0.05,
        clients_per_repository=5,
    )
    scalar = run_simulation(config.with_(kernel="scalar"))
    assert run_simulation(config.with_(kernel="vectorized")) == scalar
    assert scalar.counters.reconfigurations > 0 and scalar.counters.drops > 0


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_runs_are_bit_deterministic(name):
    kwargs = GOLDEN[name][0]
    config = churned(**kwargs)
    assert run_simulation(config) == run_simulation(config)


# ----------------------------------------------------------------------
# Accounting invariants under churn
# ----------------------------------------------------------------------

def test_conservation_under_mixed_churn():
    result = run_simulation(churned(joins=2, departs=2, updates=2))
    c = result.counters
    assert c.deliveries + c.drops == c.messages


def test_conservation_under_churn_with_message_loss():
    result = run_simulation(
        churned(joins=2, departs=2, updates=2, message_loss_probability=0.2)
    )
    c = result.counters
    assert c.drops > 0
    assert c.deliveries + c.drops == c.messages


def test_inflight_messages_to_departed_nodes_become_drops():
    # A 5-second mean hop delay keeps many updates in flight, so the
    # departures strand some of them (9 at this seed).
    result = run_simulation(
        churned(joins=2, departs=2, updates=2, comm_target_ms=5000.0)
    )
    c = result.counters
    assert c.drops > 0
    assert c.deliveries + c.drops == c.messages


def test_reconfiguration_counters_match_schedule():
    config = churned(joins=2, departs=2, updates=2)
    result = run_simulation(config)
    assert result.counters.reconfigurations == len(config.churn)
    assert (
        result.counters.resubscriptions
        == result.counters.edges_added + result.counters.edges_removed
    )
    assert result.reconfiguration_cost > 0


def test_static_run_reports_zero_reconfiguration():
    result = run_simulation(BASE)
    assert result.counters.reconfigurations == 0
    assert result.reconfiguration_cost == 0
    assert "churn_events" not in result.extras


def test_empty_schedule_is_normalised_to_static_membership():
    config = BASE.with_(churn=ChurnSchedule())
    assert config.churn is None
    assert config == BASE and hash(config) == hash(BASE)
    assert run_simulation(config) == run_simulation(BASE)


def test_schedule_referencing_unknown_item_rejected():
    schedule = ChurnSchedule((ChurnEvent.update(50.0, 1, {99: 0.1}),))
    with pytest.raises(ConfigurationError):
        build_setup(BASE.with_(churn=schedule))
    schedule = ChurnSchedule((ChurnEvent.join(50.0, 1, requirements={-1: 0.1}),))
    with pytest.raises(ConfigurationError):
        build_setup(BASE.with_(churn=schedule))


# ----------------------------------------------------------------------
# Mid-run semantics
# ----------------------------------------------------------------------

def test_late_joiner_is_served_after_joining():
    config = churned(joins=3)
    setup = build_setup(config)
    late = sorted(config.churn.walk())
    assert late, "synthetic schedule must produce late joiners"
    # Late joiners are absent from the initial graph ...
    for repo in late:
        assert repo not in setup.graph.nodes
    # ... but scored (and served) once they join.
    result = run_simulation(config, setup=setup)
    for repo in late:
        assert repo in result.per_repository_loss
        assert result.per_repository_loss[repo] < 100.0


def test_departed_repository_scoring_stops_at_departure():
    config = churned(departs=3)
    departed = [e.repository for e in config.churn if e.kind == "depart"]
    result = run_simulation(config)
    # Departed repositories are still scored for their membership window.
    for repo in departed:
        assert repo in result.per_repository_loss
    assert result.extras["final_members"] == BASE.n_repositories - len(departed)


def test_mixed_schedule_has_all_three_kinds():
    config = churned(joins=2, departs=2, updates=2)
    kinds = {e.kind for e in config.churn}
    assert kinds == {"join", "depart", "update"}


def test_explicit_requirements_on_join_override_the_profile():
    schedule = ChurnSchedule(
        (ChurnEvent.join(100.0, 1, requirements={0: 0.05}),)
    )
    # Repository 1's generated profile is replaced by the explicit one.
    config = BASE.with_(churn=schedule)
    result = run_simulation(config)
    assert result.extras["final_members"] == BASE.n_repositories
    pair_losses = result.extras["per_pair_loss"]
    assert set(k for k in pair_losses if k[0] == 1) == {(1, 0)}


def test_depart_then_rejoin_is_served_again():
    """A repository that departs and later rejoins must be delivered to
    again (not treated as departed forever) and must initial-sync fresh
    copies rather than resume from its stale pre-departure state."""
    schedule = ChurnSchedule(
        (ChurnEvent.depart(50.0, 3), ChurnEvent.join(150.0, 3))
    )
    config = BASE.with_(churn=schedule)
    result = run_simulation(config)
    c = result.counters
    assert c.deliveries + c.drops == c.messages
    assert result.extras["final_members"] == BASE.n_repositories
    # The rejoiner is scored over both membership intervals and is
    # genuinely served after rejoining: its post-rejoin loss cannot be
    # the ~100% a permanently-stale copy would show.
    assert 3 in result.per_repository_loss
    assert result.per_repository_loss[3] < 50.0
    assert result == run_simulation(config)


def test_rejoiner_receives_deliveries_after_rejoin():
    from repro.engine.oracle import DisseminationSimulation

    schedule = ChurnSchedule(
        (ChurnEvent.depart(50.0, 3), ChurnEvent.join(150.0, 3))
    )
    setup = build_setup(BASE.with_(churn=schedule))
    sim = DisseminationSimulation(setup)
    sim.run()
    profile = setup.profiles[3]
    post_rejoin = [
        t
        for item_id in profile.requirements
        for t, _v in sim.delivery_log(3, item_id)
        if t > 150.0
    ]
    assert post_rejoin, "rejoined repository never received a delivery"


def test_a_churn_run_starts_from_the_setup_graph_itself():
    """No per-run replay: the core's first graph is the setup's, and the
    initial members are its repositories in join order."""
    setup = build_setup(churned(joins=2, departs=1, updates=1))
    core = VectorizedSimulation(setup)._reconfig
    assert core.graph is setup.graph
    assert list(core.members) == setup.config.churn.initial_members(setup.profiles)


def test_a_mid_run_join_continues_the_setup_graphs_join_order():
    """The builder joins a churn run's initial members in order by the
    call a mid-run join makes: the highest-id repository joining late
    reaches, on both kernels, the graph the builder makes when it is the
    last initial member."""
    from repro.core.dynamics import edges_of
    from repro.engine.oracle import DisseminationSimulation

    last = max(build_setup(BASE).profiles)
    late = build_setup(BASE.with_(churn=ChurnSchedule((ChurnEvent.join(5.0, last),))))
    initial = build_setup(BASE.with_(churn=ChurnSchedule((ChurnEvent.depart(5.0, 1),))))
    assert last not in late.graph.nodes and last in initial.graph.nodes
    for kernel in (VectorizedSimulation, DisseminationSimulation):
        plane = kernel(late)
        plane.run()
        assert list(plane._reconfig.members) == sorted(initial.profiles)
        assert edges_of(plane._reconfig.graph) == edges_of(initial.graph)


def _snapshot(graph):
    """Everything a run could mutate in place: levels, and per node the
    receive coherencies, parents and child table, in table order."""
    return [list(level) for level in graph.levels], {
        node: (
            dict(state.receive_c),
            dict(state.parent_for),
            [(child, sorted(items)) for child, items in state.children.items()],
        )
        for node, state in graph.nodes.items()
    }


def test_setup_reuse_is_safe_after_a_churned_run():
    """Running twice from one prebuilt setup gives identical results and
    leaves the setup's graph as it was: a join inserts into a copy of the
    current graph, here before any tick has rebuilt it."""
    base = BASE.with_(workload=FlashCrowdWorkload())
    config = base.with_(
        churn=ChurnSchedule((
            ChurnEvent.join(5.0, 3), ChurnEvent.depart(120.0, 3), ChurnEvent.join(240.0, 3),
        )),
        failures=failures_for_config(base, crashes=1, partitions=1),
        adaptive=AdaptivePolicy(window=20.0, threshold=0.3),
    )
    setup = build_setup(config)
    before = _snapshot(setup.graph)
    first = run_simulation(config, setup=setup)
    second = run_simulation(config, setup=setup)
    assert _snapshot(setup.graph) == before
    assert first == second
    assert first.extras["adaptive_rewires"] > 0 and first.extras["crashes"] > 0


# ----------------------------------------------------------------------
# Parallel sweeps (the PR-1 determinism contract extended to churn)
# ----------------------------------------------------------------------

def test_churned_sweep_parallel_matches_serial_bitwise():
    mixed = churned(joins=2, departs=2, updates=2)
    configs = [mixed.with_(offered_degree=d) for d in (2, 3, 4, 6)]
    serial = run_sweep(configs, jobs=1)
    for jobs in (2, 4):
        assert run_sweep(configs, jobs=jobs) == serial


def test_churned_and_static_configs_mix_in_one_sweep():
    mixed = churned(joins=1, departs=1, updates=1)
    configs = [BASE, mixed, BASE.with_(offered_degree=5)]
    serial = run_sweep(configs, jobs=1)
    assert run_sweep(configs, jobs=2) == serial
    assert serial[0].counters.reconfigurations == 0
    assert serial[1].counters.reconfigurations == 3


# ----------------------------------------------------------------------
# Policy coverage and guard rails
# ----------------------------------------------------------------------

@pytest.mark.parametrize("policy", ["distributed", "centralized", "flooding", "eq3_only"])
def test_every_policy_survives_mixed_churn(policy):
    result = run_simulation(churned(joins=1, departs=1, updates=1, policy=policy))
    c = result.counters
    assert c.reconfigurations == 3
    assert c.deliveries + c.drops == c.messages
    assert 0.0 <= result.loss_of_fidelity <= 100.0


def test_schedule_referencing_unknown_repository_rejected():
    schedule = ChurnSchedule((ChurnEvent.depart(10.0, 9999),))
    with pytest.raises(ConfigurationError):
        build_setup(BASE.with_(churn=schedule))
