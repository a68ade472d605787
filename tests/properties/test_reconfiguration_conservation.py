"""Wire conservation under every reconfiguration source.

The repo now has three distinct ways to change the dissemination tree
mid-run -- planned churn, unplanned failures, and drift-triggered
adaptive rewiring.  All three are decided by the one
:class:`~repro.engine.reconfig.ReconfigurationCore` and executed by
three planes (scalar kernel, vectorized kernel, in-process live
network) that retarget live edges while updates are in flight, which is
exactly where a charging bug would hide.  This module pins the shared
invariant once, parametrized over plane x source:

- ``deliveries + drops == messages`` (nothing double-charged, nothing
  silently freed);
- the fidelity score stays a percentage;
- the run really did reconfigure (the parametrization is not vacuous);
- every plane that runs a source agrees with the scalar oracle bit for
  bit, and a plane that does not run it refuses with a
  ``ConfigurationError`` (today: churn on the live network).
"""

from __future__ import annotations

import pytest

from repro.engine.adaptive import AdaptivePolicy
from repro.engine.churn import synthetic_schedule
from repro.engine.config import SCALE_PRESETS
from repro.engine.failures import FailureEvent, FailureSchedule
from repro.engine.simulation import run_simulation
from repro.errors import ConfigurationError
from repro.live import run_live
from repro.workloads import FlashCrowdWorkload

BASE = SCALE_PRESETS["tiny"].with_(
    n_repositories=8, n_routers=24, n_items=2, trace_samples=120, seed=3913
)

_SPAN = float(BASE.trace_samples - 1)


def _churn_config():
    schedule = synthetic_schedule(
        repositories=range(1, BASE.n_repositories + 1),
        n_items=BASE.n_items,
        span_s=_SPAN,
        joins=1,
        departs=2,
        updates=1,
        seed=7,
    )
    return BASE.with_(churn=schedule)


def _failures_config():
    schedule = FailureSchedule(
        (
            FailureEvent.crash(30.0, 3),
            FailureEvent.recover(70.0, 3),
            FailureEvent.crash(55.0, 5),
        )
    )
    return BASE.with_(failures=schedule)


def _adaptive_config():
    return BASE.with_(
        workload=FlashCrowdWorkload(),
        adaptive=AdaptivePolicy(window=20.0, threshold=0.5, max_rewires=2),
    )


SOURCES = {
    "churn": _churn_config,
    "failures": _failures_config,
    "adaptive": _adaptive_config,
}

PLANES = {
    "scalar": lambda config: run_simulation(config.with_(kernel="scalar")),
    "vectorized": lambda config: run_simulation(config.with_(kernel="vectorized")),
    "inprocess": lambda config: run_live(config, "inprocess"),
}

#: plane x source cells that are refused rather than run.
REFUSED = {("inprocess", "churn")}


def _assert_reconfigured(source: str, result) -> None:
    assert result.counters.reconfigurations > 0
    if source == "adaptive":
        assert result.extras["adaptive_rewires"] > 0
    elif source == "failures":
        assert result.extras["failure_events"] > 0


@pytest.mark.parametrize("loss", [0.0, 0.05])
@pytest.mark.parametrize("source", sorted(SOURCES))
def test_deliveries_plus_drops_equal_messages(source, loss):
    config = SOURCES[source]().with_(message_loss_probability=loss)
    scalar = run_simulation(config.with_(kernel="scalar"))
    counters = scalar.counters
    assert counters.deliveries + counters.drops == counters.messages
    if loss == 0.0:
        assert counters.drops == 0 or source == "failures"
    assert 0.0 <= scalar.loss_of_fidelity <= 100.0
    _assert_reconfigured(source, scalar)
    assert run_simulation(config.with_(kernel="vectorized")) == scalar


@pytest.mark.parametrize("source", sorted(SOURCES))
@pytest.mark.parametrize("plane", sorted(PLANES))
def test_every_plane_runs_the_source_like_the_oracle_or_refuses(plane, source):
    config = SOURCES[source]().with_(message_loss_probability=0.05)
    if (plane, source) in REFUSED:
        with pytest.raises(ConfigurationError):
            PLANES[plane](config)
        return
    result = PLANES[plane](config)
    oracle = PLANES["scalar"](config)
    counters = result.counters
    assert counters.deliveries + counters.drops == counters.messages
    assert counters.reconfigurations > 0
    assert counters == oracle.counters
    assert result.loss_of_fidelity == oracle.loss_of_fidelity
    assert result.per_repository_loss == oracle.per_repository_loss
    assert result.tree_stats == oracle.tree_stats
