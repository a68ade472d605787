"""Structural guard: one engine that nothing selects.

``make_simulation`` returns the engine for every config -- whatever the
policy, whatever reconfigures the run -- and the per-event reference
oracle only under ``kernel="scalar"``.  The engine does not build on the
oracle: no class from ``repro.engine.oracle`` in its ancestry, no policy
object, no FIFO stations.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.dissemination.filtering import FILTERED_POLICIES
from repro.engine.adaptive import AdaptivePolicy
from repro.engine.builder import build_setup
from repro.engine.churn import ChurnEvent, ChurnSchedule
from repro.engine.config import SCALE_PRESETS
from repro.engine.failures import FailureEvent, FailureSchedule
from repro.engine.oracle import DisseminationSimulation
from repro.engine.simulation import VectorizedSimulation, make_simulation

BASE = SCALE_PRESETS["tiny"].with_(n_items=2, trace_samples=60)

RUN_KINDS = {
    "static": {},
    "churn": {"churn": ChurnSchedule(events=(ChurnEvent.depart(20.0, 1),))},
    "failures": {"failures": FailureSchedule((FailureEvent.link_down(20.0, 0, 2),))},
    "adaptive": {"adaptive": AdaptivePolicy(window=20.0)},
    "clients": {"clients_per_repository": 5},
    "loss": {"message_loss_probability": 0.05},
}


@pytest.mark.parametrize("kind", sorted(RUN_KINDS))
@pytest.mark.parametrize("policy", sorted(FILTERED_POLICIES))
def test_every_config_gets_the_engine_and_only_scalar_the_oracle(policy, kind):
    config = BASE.with_(policy=policy, **RUN_KINDS[kind])
    setup = build_setup(config)

    def under(kernel):
        return make_simulation(replace(setup, config=config.with_(kernel=kernel)))

    assert type(under("auto")) is VectorizedSimulation
    assert type(under("vectorized")) is VectorizedSimulation
    assert type(under("scalar")) is DisseminationSimulation


def test_the_engine_does_not_build_on_the_oracle():
    assert not [
        cls for cls in VectorizedSimulation.__mro__
        if cls.__module__ == "repro.engine.oracle"
    ]
    sim = make_simulation(build_setup(BASE))
    assert not hasattr(sim, "policy")
    assert not hasattr(sim, "_stations")
    assert not hasattr(sim, "_children")
