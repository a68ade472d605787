"""One client model on every plane.

The engine, its reference oracle, the in-process and TCP live
transports and the fleet all serve the builder's modeled-client blocks
(``clients_per_repository``) with one rule, so their
``client_checks`` / ``client_messages`` totals are equal, count for
count.  A static run without loss is timing-free -- each pair receives
the same values in the same order on every wire -- so the socket planes
are held to exact equality too.
"""

import functools

import pytest

from repro.core.dissemination.filtering import FILTERED_POLICIES
from repro.engine.adaptive import AdaptivePolicy
from repro.engine.churn import schedule_for_config
from repro.engine.config import SCALE_PRESETS
from repro.engine.failures import failures_for_config
from repro.engine.simulation import run_simulation
from repro.fleet import run_fleet
from repro.live import run_live

pytestmark = pytest.mark.live

BASE = SCALE_PRESETS["tiny"].with_(clients_per_repository=7)
TIME_SCALE = 2000.0

PLANES = {
    "oracle": lambda config: run_simulation(config.with_(kernel="scalar")),
    "inprocess": run_live,
    "tcp": lambda config: run_live(config, "tcp", time_scale=TIME_SCALE),
    "fleet": lambda config: run_fleet(config, workers=2, time_scale=TIME_SCALE),
}

#: Variants the single-process exact planes run besides the plain one.
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

CASES = [
    (policy, variant, plane)
    for policy in FILTERED_POLICIES
    for variant in VARIANTS
    for plane in PLANES
    if variant == "plain" or plane in ("oracle", "inprocess")
]


@functools.cache
def _engine(policy: str, variant: str):
    config = VARIANTS[variant](BASE.with_(policy=policy))
    return config, run_simulation(config)


@pytest.mark.parametrize(
    "policy, variant, plane", CASES, ids=["-".join(case) for case in CASES]
)
def test_every_plane_serves_the_engines_modeled_clients(policy, variant, plane):
    config, engine = _engine(policy, variant)
    result = PLANES[plane](config)
    served = (result.counters.client_checks, result.counters.client_messages)
    assert served == (engine.counters.client_checks, engine.counters.client_messages)
    assert engine.counters.client_messages > 0
    if variant == "loss":
        assert engine.counters.drops > 0
    if variant == "failures":
        assert engine.extras["crashes"] > 0
    if variant == "adaptive":
        assert engine.extras["adaptive_rewires"] > 0
    if variant == "churn":
        assert engine.counters.reconfigurations > 0
    if plane in ("oracle", "inprocess"):
        assert result.counters == engine.counters
        assert result.loss_of_fidelity == engine.loss_of_fidelity
