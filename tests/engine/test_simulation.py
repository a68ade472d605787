"""Integration tests for the end-to-end dissemination simulation."""

import pytest

from repro.core.dissemination import make_policy
from repro.engine.builder import build_setup
from repro.engine.config import SCALE_PRESETS
from repro.engine.oracle import DisseminationSimulation
from repro.engine.simulation import make_simulation, run_simulation
from repro.errors import SimulationError


@pytest.fixture(scope="module")
def tiny_result(tiny_setup_module):
    return DisseminationSimulation(tiny_setup_module).run()


@pytest.fixture(scope="module")
def tiny_setup_module():
    return build_setup(SCALE_PRESETS["tiny"].with_(offered_degree=4))


def test_result_fields_sane(tiny_result):
    assert 0.0 <= tiny_result.loss_of_fidelity <= 100.0
    assert tiny_result.fidelity == pytest.approx(100.0 - tiny_result.loss_of_fidelity)
    assert tiny_result.messages > 0
    assert tiny_result.events_processed > 0
    assert tiny_result.sim_span_s > 0
    assert tiny_result.effective_degree == 4


def test_per_repository_losses_cover_all_repos(tiny_result, tiny_setup_module):
    assert set(tiny_result.per_repository_loss) == set(
        tiny_setup_module.profiles.keys()
    )
    for loss in tiny_result.per_repository_loss.values():
        assert 0.0 <= loss <= 100.0


def test_messages_equal_deliveries(tiny_result):
    # Every sent message arrives exactly once (no loss model).
    assert tiny_result.counters.messages == tiny_result.counters.deliveries


def test_distributed_source_checks_scale_with_children(tiny_setup_module):
    result = DisseminationSimulation(
        tiny_setup_module, make_policy("distributed")
    ).run()
    # The source checks each item-child per source change; it must have
    # done at least one check per message it sent.
    assert result.counters.source_checks >= result.counters.source_messages


def test_same_setup_same_result(tiny_setup_module):
    a = DisseminationSimulation(tiny_setup_module, make_policy("distributed")).run()
    b = DisseminationSimulation(tiny_setup_module, make_policy("distributed")).run()
    assert a.loss_of_fidelity == b.loss_of_fidelity
    assert a.messages == b.messages
    assert a.counters.source_checks == b.counters.source_checks


@pytest.mark.parametrize("kernel", ["scalar", "vectorized"])
def test_a_simulation_runs_once_and_its_result_survives_the_refusal(kernel):
    """A second run() used to merge the counters again on the batch
    kernel -- silently rewriting the result already returned."""
    setup = build_setup(SCALE_PRESETS["tiny"].with_(seed=5, kernel=kernel))
    simulation = make_simulation(setup)
    first = simulation.run()
    with pytest.raises(SimulationError, match="build a new one"):
        simulation.run()
    assert first == make_simulation(setup).run()


def test_run_simulation_end_to_end():
    result = run_simulation(SCALE_PRESETS["tiny"].with_(offered_degree=4))
    assert 0.0 <= result.loss_of_fidelity <= 100.0


def test_flooding_sends_more_than_distributed(tiny_setup_module):
    flood = DisseminationSimulation(tiny_setup_module, make_policy("flooding")).run()
    filtered = DisseminationSimulation(
        tiny_setup_module, make_policy("distributed")
    ).run()
    assert flood.messages > filtered.messages


def test_centralized_and_distributed_send_similar_messages(tiny_setup_module):
    # Figure 11(b): both exact policies send (essentially) the same
    # number of messages.
    central = DisseminationSimulation(
        tiny_setup_module, make_policy("centralized")
    ).run()
    dist = DisseminationSimulation(
        tiny_setup_module, make_policy("distributed")
    ).run()
    assert central.messages == pytest.approx(dist.messages, rel=0.15)


def test_centralized_does_more_source_checks(tiny_setup_module):
    # Figure 11(a): the tagging source checks every unique tolerance.
    central = DisseminationSimulation(
        tiny_setup_module, make_policy("centralized")
    ).run()
    dist = DisseminationSimulation(
        tiny_setup_module, make_policy("distributed")
    ).run()
    assert central.counters.source_checks > dist.counters.source_checks


def test_zero_delay_distributed_is_perfect():
    # The paper's central theorem: Eq. (3) + Eq. (7) give 100% fidelity
    # when communication and computation are free.
    config = SCALE_PRESETS["tiny"].with_(
        offered_degree=4, comm_target_ms=0.0, comp_delay_ms=0.0,
        policy="distributed",
    )
    result = run_simulation(config)
    assert result.loss_of_fidelity == 0.0


def test_zero_delay_centralized_is_perfect():
    config = SCALE_PRESETS["tiny"].with_(
        offered_degree=4, comm_target_ms=0.0, comp_delay_ms=0.0,
        policy="centralized",
    )
    result = run_simulation(config)
    assert result.loss_of_fidelity == 0.0


def test_zero_delay_eq3_only_is_not_perfect():
    # ... and the missed-update problem makes Eq. (3) alone lossy even
    # on an ideal network (Figure 4's argument, end to end).
    config = SCALE_PRESETS["tiny"].with_(
        offered_degree=4, comm_target_ms=0.0, comp_delay_ms=0.0,
        policy="eq3_only",
    )
    result = run_simulation(config)
    assert result.loss_of_fidelity > 0.0


def test_delivery_log_primed_and_ordered(tiny_setup_module):
    sim = DisseminationSimulation(tiny_setup_module, make_policy("distributed"))
    sim.run()
    repo, profile = next(iter(tiny_setup_module.profiles.items()))
    item_id = profile.items[0]
    log = sim.delivery_log(repo, item_id)
    assert log[0] == (0.0, tiny_setup_module.traces[item_id].initial_value)
    times = [t for t, _ in log]
    assert times == sorted(times)


def test_scoring_a_pair_without_a_delivery_log_is_a_simulation_error(
    tiny_setup_module,
):
    sim = DisseminationSimulation(tiny_setup_module)
    del sim._deliveries[next(iter(sim._deliveries))]
    with pytest.raises(SimulationError, match="no delivery log"):
        sim.run()


def test_chain_has_higher_loss_than_balanced_tree():
    base = SCALE_PRESETS["tiny"].with_(t_percent=100.0)
    chain = run_simulation(base.with_(offered_degree=1))
    tree = run_simulation(base.with_(offered_degree=4))
    assert chain.loss_of_fidelity > tree.loss_of_fidelity


def test_deeper_repositories_lose_more_fidelity_in_chain():
    config = SCALE_PRESETS["tiny"].with_(offered_degree=1, t_percent=100.0)
    setup = build_setup(config)
    result = DisseminationSimulation(setup).run()
    levels = {r: setup.graph.nodes[r].level for r in setup.repositories}
    shallow = [
        loss for r, loss in result.per_repository_loss.items() if levels[r] <= 5
    ]
    deep = [
        loss for r, loss in result.per_repository_loss.items() if levels[r] > 15
    ]
    assert sum(deep) / len(deep) > sum(shallow) / len(shallow)
