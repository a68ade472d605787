"""One client model on the engine and its reference oracle.

The engine and the oracle serve the builder's modeled-client blocks
(``clients_per_repository``) with one rule, so their ``client_checks`` /
``client_messages`` totals and every other counter are equal, count for
count, under every policy and reconfiguration.  The live planes are
held to the engine's whole result, client totals included, cell by cell
by the ``live_crosscheck`` table
(``tests/experiments/test_live_crosscheck.py``).
"""

import functools

import pytest

from repro.core.dissemination.filtering import FILTERED_POLICIES
from repro.engine.adaptive import AdaptivePolicy
from repro.engine.churn import schedule_for_config
from repro.engine.config import SCALE_PRESETS
from repro.engine.failures import failures_for_config
from repro.engine.simulation import run_simulation
from repro.live import build_live_network, run_live

pytestmark = pytest.mark.live

BASE = SCALE_PRESETS["tiny"].with_(clients_per_repository=7)

VARIANTS = {
    "plain": lambda config: config,
    "loss": lambda config: config.with_(message_loss_probability=0.05),
    "failures": lambda config: config.with_(
        failures=failures_for_config(config, crashes=2, partitions=2)
    ),
    "adaptive": lambda config: config.with_(
        adaptive=AdaptivePolicy(window=20.0, threshold=0.5, max_rewires=4)
    ),
    # Departures and requirement changes unsubscribe pairs mid-run.
    "churn": lambda config: config.with_(
        churn=schedule_for_config(config, joins=1, departs=1, updates=1)
    ),
}

CASES = [(policy, variant) for policy in FILTERED_POLICIES for variant in VARIANTS]


@functools.cache
def _engine(policy: str, variant: str):
    config = VARIANTS[variant](BASE.with_(policy=policy))
    return config, run_simulation(config)


@pytest.mark.parametrize("policy, variant", CASES, ids=["-".join(case) for case in CASES])
def test_the_oracle_serves_the_engines_modeled_clients(policy, variant):
    config, engine = _engine(policy, variant)
    result = run_simulation(config.with_(kernel="scalar"))
    served = (result.counters.client_checks, result.counters.client_messages)
    assert served == (engine.counters.client_checks, engine.counters.client_messages)
    assert engine.counters.client_messages > 0
    if variant == "loss":
        assert engine.counters.drops > 0
    if variant == "failures":
        assert engine.extras["crashes"] > 0
        # Recovery resyncs write sync entries, which no client is served.
        assert engine.counters.resync_messages > 0
    if variant == "adaptive":
        assert engine.extras["adaptive_rewires"] > 0
    if variant == "churn":
        assert engine.counters.reconfigurations > 0
    assert result.counters == engine.counters
    assert result.loss_of_fidelity == engine.loss_of_fidelity


#: Seed 13's eight requirement changes drop an item from a pair while a
#: copy toward it is in flight, under every policy: the pair's
#: repository is still a member, so the copy arrives and is logged (and
#: scored), but the pair is no longer wired and no client is served it.
IN_FLIGHT = SCALE_PRESETS["tiny"].with_(seed=13, clients_per_repository=7)


@pytest.mark.parametrize("policy", FILTERED_POLICIES)
def test_a_copy_logged_after_its_pairs_unsubscribe_serves_no_client(policy):
    base = IN_FLIGHT.with_(policy=policy)
    config = base.with_(churn=schedule_for_config(base, updates=8))
    network = build_live_network(config)
    inprocess = run_live(config, network=network)
    # The case is reached: a served pair's last step stops serving, and
    # its log holds entries past that step.
    assert any(
        steps[-1][1] is None and len(network.log(*pair)) // 2 > steps[-1][0]
        for pair, steps in network.reconfig.serving.items()
        if pair in network.setup.client_tolerances
    )
    oracle = run_simulation(config.with_(kernel="scalar"))
    reference = (oracle.counters.client_checks, oracle.counters.client_messages)
    assert reference[1] > 0
    for result in (run_simulation(config), inprocess):
        assert (result.counters.client_checks, result.counters.client_messages) == reference
