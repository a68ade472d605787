"""Pull and push-pull hybrid runs on the engine (``SimulationConfig.pull``).

A poll is three rows on the engine's own heap; ``reference_pull.py`` is
the per-event reference they must equal, field for field.
"""

import math

import pytest
from reference_pull import PullSimulation

from repro.engine.adaptive import AdaptivePolicy
from repro.engine.builder import build_setup
from repro.engine.churn import schedule_for_config
from repro.engine.config import SCALE_PRESETS, PullConfig
from repro.engine.failures import failures_for_config
from repro.engine.oracle import DisseminationSimulation
from repro.engine.simulation import make_simulation, run_simulation
from repro.errors import ConfigurationError
from repro.fleet.supervisor import run_fleet
from repro.live.harness import run_live
from repro.obs.trace import TraceRecorder

TINY = SCALE_PRESETS["tiny"]
#: The perf ledger's ``figure_sweep`` shape.
SWEEP = TINY.with_(n_items=18, trace_samples=200, seed=7)

VARIANTS = {
    "ttr2": PullConfig(ttr_s=2.0),
    "ttr10": PullConfig(ttr_s=10.0),
    "ttr30": PullConfig(ttr_s=30.0),
    "adaptive": PullConfig(ttr_s=10.0, ttr_min_s=1.0, ttr_max_s=60.0),
}

HYBRID = TINY.with_(n_items=6, trace_samples=500, t_percent=50.0, offered_degree=4)


def hybrid(threshold_c):
    return HYBRID.with_(
        pull=PullConfig(
            ttr_s=10.0, ttr_min_s=1.0, ttr_max_s=60.0,
            threshold_c=threshold_c,
        )
    )


def assert_equals_reference(config):
    setup = build_setup(config)
    reference = PullSimulation(setup, config.pull).run()
    result = make_simulation(setup).run()
    assert result.loss_of_fidelity == reference.loss_of_fidelity
    assert result.per_repository_loss == reference.per_repository_loss
    assert result.extras["per_pair_loss"] == reference.extras["per_pair_loss"]
    assert result.counters == reference.counters
    # The engine also pops the source timeline; the reference has none.
    assert result.events_processed == reference.events_processed + len(setup.update_schedule)
    return setup, result


def test_pull_config_validation():
    bad = [
        dict(ttr_s=0.0),
        dict(ttr_min_s=0.0),
        dict(ttr_min_s=10.0, ttr_max_s=1.0),
        dict(ttr_s=0.5, ttr_min_s=1.0, ttr_max_s=60.0),
        dict(ttr_s=math.nan),
        dict(ttr_s=math.inf),
        dict(ttr_max_s=math.nan),
        dict(ttr_min_s=1.0, ttr_max_s=math.inf),
        dict(threshold_c=-0.1),
        dict(threshold_c=math.nan),
    ]
    for fields in bad:
        with pytest.raises(ConfigurationError):
            PullConfig(**fields)
    PullConfig(threshold_c=math.inf)  # everything pushes
    # Unset bounds pin the TTR: the fixed schedule.
    assert PullConfig(ttr_s=5.0) == PullConfig(ttr_s=5.0, ttr_min_s=5.0, ttr_max_s=5.0)
    with pytest.raises(ConfigurationError):
        TINY.with_(pull=(10.0,))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("config", [TINY, SWEEP], ids=["tiny", "figure_sweep"])
def test_polls_on_the_engine_equal_the_reference(config, variant):
    assert_equals_reference(config.with_(pull=VARIANTS[variant]))


def test_a_tie_between_first_polls_breaks_in_pair_order():
    # Pair k and pair k + 97 are de-phased by the same offset; with over
    # 97 items per repository both belong to one repository, so their
    # requests leave, reach the source and are served at one instant.
    config = TINY.with_(
        n_repositories=2, n_routers=4, n_items=240, trace_samples=60,
        pull=PullConfig(ttr_s=7.0),
    )
    setup, result = assert_equals_reference(config)
    polls = setup.polls
    k = 3
    assert polls[k][0] == polls[k + 97][0]
    assert result.extras["polls"] > len(polls)


@pytest.mark.parametrize(
    "config",
    [
        TINY.with_(n_items=6, trace_samples=300, pull=PullConfig(ttr_s=5.0)),
        TINY.with_(pull=VARIANTS["adaptive"]),
        hybrid(0.1),
    ],
    ids=["fixed", "adaptive", "hybrid"],
)
def test_pull_conserves_messages(config):
    result = run_simulation(config)
    assert result.counters.drops == 0
    assert result.conserved


def test_two_messages_per_poll():
    result = run_simulation(TINY.with_(pull=PullConfig(ttr_s=5.0)))
    # A request and a response, and one check at the source, per poll.
    assert result.messages == 2 * result.counters.source_checks == 2 * result.extras["polls"]
    assert result.extras["push_pairs"] == 0


def test_shorter_ttr_improves_fidelity_and_adaptive_sits_between():
    fast, slow, adaptive = (
        run_simulation(TINY.with_(pull=pull))
        for pull in (PullConfig(ttr_s=1.0), PullConfig(ttr_s=60.0), VARIANTS["adaptive"])
    )
    assert fast.loss_of_fidelity < adaptive.loss_of_fidelity < slow.loss_of_fidelity
    assert fast.messages > adaptive.messages > slow.messages


def test_the_adaptive_ttr_moves_within_its_bounds():
    # A fixed 30 s TTR spaces a pair's responses 30 s plus a round trip
    # apart; the adaptive one polls hot pairs faster and quiet ones slower.
    adaptive = PullConfig(ttr_s=30.0, ttr_min_s=1.0, ttr_max_s=60.0)
    setup = build_setup(TINY.with_(pull=adaptive))
    simulation = make_simulation(setup)
    result = simulation.run()
    gaps = [
        after - before
        for log in (simulation._deliveries[pair] for pair in setup.polls)
        for before, after in zip(log[2::2], log[4::2])
    ]
    assert 1.0 <= min(gaps) < 29.0
    assert max(gaps) > 31.0
    fixed = run_simulation(TINY.with_(pull=PullConfig(ttr_s=30.0)))
    assert result.messages != fixed.messages


def test_push_dominates_pull():
    push = run_simulation(TINY)
    pull = run_simulation(TINY.with_(pull=PullConfig(ttr_s=5.0)))
    assert push.loss_of_fidelity < pull.loss_of_fidelity


def test_a_hybrid_covers_every_pair_once():
    setup = build_setup(hybrid(0.1))
    result = make_simulation(setup).run()
    pairs = {(repo, x) for repo, profile in setup.profiles.items() for x in profile.requirements}
    pushed = {
        (repo, x) for repo, state in setup.graph.nodes.items() for x in state.receive_c
    }
    assert set(setup.polls) == pairs - pushed
    assert result.extras["pull_pairs"] == len(setup.polls) > 0
    assert result.extras["push_pairs"] + result.extras["pull_pairs"] == len(pairs)
    assert set(result.extras["per_pair_loss"]) == pairs


def test_hybrid_fidelity_is_bounded_by_pure_push():
    # Pushing everything is the fidelity upper bound at this scale.
    assert run_simulation(hybrid(0.1)).loss_of_fidelity >= run_simulation(HYBRID).loss_of_fidelity


def test_hybrid_pushes_less_than_pure_push():
    # Its lax subscriptions poll instead: the push part's traffic (every
    # message but a poll's request and response) is below pushing all.
    result = run_simulation(hybrid(0.1))
    assert 0 < result.messages - 2 * result.extras["polls"] < run_simulation(HYBRID).messages


def test_threshold_extremes_are_pure_push_and_pure_pull():
    everything = run_simulation(hybrid(math.inf))
    push = run_simulation(HYBRID)
    assert everything.extras["pull_pairs"] == 0
    assert everything.loss_of_fidelity == push.loss_of_fidelity
    assert everything.counters == push.counters
    nothing = run_simulation(hybrid(1e-9))
    pure = run_simulation(hybrid(0.0))
    assert nothing.extras["push_pairs"] == 0
    assert nothing.loss_of_fidelity == pure.loss_of_fidelity
    assert nothing.counters == pure.counters


def test_a_poll_waits_behind_push_forwards_on_the_source_queue():
    # One polling pair -- the laxest subscription -- beside a busy push
    # source: a response later than its request's uncontended round trip
    # waited on the source's FIFO behind push forwards.
    busy = HYBRID.with_(comp_delay_ms=100.0)
    tolerances = sorted(
        c for profile in build_setup(busy).profiles.values()
        for c in profile.requirements.values()
    )
    config = busy.with_(pull=PullConfig(ttr_s=5.0, threshold_c=tolerances[-2]))
    setup = build_setup(config)
    assert len(setup.polls) == 1
    (repo, item_id), = setup.polls
    simulation = make_simulation(setup)
    simulation.run()
    network, source = setup.network, setup.source
    up, down = network.delay_s(repo, source), network.delay_s(source, repo)
    comp = config.comp_delay_ms / 1000.0
    times = simulation._deliveries[(repo, item_id)][2::2]
    waited = 0
    for before, after in zip(times, times[1:]):
        uncontended = (before + 5.0 + up + comp) + down
        assert after >= uncontended
        waited += after > uncontended
    assert waited > 0


def _churned(config):
    return config.with_(churn=schedule_for_config(config, joins=1))


REFUSED = {
    "churn": lambda pull: _churned(TINY).with_(pull=pull),
    "failures": lambda pull: TINY.with_(
        failures=failures_for_config(TINY, crashes=1), pull=pull
    ),
    "adaptive": lambda pull: TINY.with_(adaptive=AdaptivePolicy(), pull=pull),
    "loss": lambda pull: TINY.with_(message_loss_probability=0.3, pull=pull),
    "scalar": lambda pull: TINY.with_(kernel="scalar", pull=pull),
    "oracle": lambda pull: DisseminationSimulation(build_setup(TINY.with_(pull=pull))),
    "live": lambda pull: run_live(TINY.with_(pull=pull)),
    "fleet": lambda pull: run_fleet(TINY.with_(pull=pull), workers=2),
    "observer": lambda pull: make_simulation(
        build_setup(TINY.with_(pull=pull)), observer=TraceRecorder()
    ),
}


@pytest.mark.parametrize("what", REFUSED)
@pytest.mark.parametrize("threshold_c", [0.0, 0.1], ids=["pull", "hybrid"])
def test_what_polls_do_not_model_is_refused(what, threshold_c):
    with pytest.raises(ConfigurationError):
        REFUSED[what](PullConfig(threshold_c=threshold_c))
