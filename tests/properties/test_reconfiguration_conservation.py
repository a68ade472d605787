"""Wire conservation under every reconfiguration source and mix.

The repo has three distinct ways to change the dissemination tree
mid-run -- planned churn, unplanned failures, and drift-triggered
adaptive rewiring -- and they compose.  All of them are decided by the
one :class:`~repro.engine.reconfig.ReconfigurationCore` and executed by
three planes (scalar kernel, vectorized kernel, in-process live
network) that retarget live edges while updates are in flight, which is
exactly where a charging bug would hide.  This module pins the shared
invariant once, parametrized over plane x source (each source alone and
every mix of them) x loss:

- ``deliveries + drops == messages`` (nothing double-charged, nothing
  silently freed), and ``sent == delivered + dropped`` on the wire;
- the fidelity score stays a percentage;
- the run really did reconfigure (the parametrization is not vacuous);
- every plane agrees with the scalar oracle bit for bit; a plane that
  does not run a source refuses it with a ``ConfigurationError``
  (:data:`REFUSED`, empty today).
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


_FAILURES = FailureSchedule(
    (
        FailureEvent.crash(30.0, 3),
        FailureEvent.recover(70.0, 3),
        FailureEvent.crash(55.0, 5),
    )
)

_ADAPTIVE = {
    "workload": FlashCrowdWorkload(),
    "adaptive": AdaptivePolicy(window=20.0, threshold=0.5, max_rewires=2),
}


def _failures_config():
    return BASE.with_(failures=_FAILURES)


def _adaptive_config():
    return BASE.with_(**_ADAPTIVE)


SOURCES = {
    "churn": _churn_config,
    "failures": _failures_config,
    "adaptive": _adaptive_config,
    "churn+failures": lambda: _churn_config().with_(failures=_FAILURES),
    "churn+adaptive": lambda: _churn_config().with_(**_ADAPTIVE),
    "failures+adaptive": lambda: _failures_config().with_(**_ADAPTIVE),
    "churn+failures+adaptive": lambda: _churn_config().with_(
        failures=_FAILURES, **_ADAPTIVE
    ),
}

PLANES = {
    "scalar": lambda config: run_simulation(config.with_(kernel="scalar")),
    "vectorized": lambda config: run_simulation(config.with_(kernel="vectorized")),
    "inprocess": lambda config: run_live(config, "inprocess"),
}

#: plane x source cells that are refused rather than run.
REFUSED: set[tuple[str, str]] = set()


def _assert_reconfigured(source: str, result) -> None:
    assert result.counters.reconfigurations > 0
    if "adaptive" in source:
        assert result.extras["adaptive_rewires"] > 0
    if "failures" in source:
        assert result.extras["failure_events"] > 0
    if "churn" in source:
        assert result.extras["churn_events"] > 0


@pytest.mark.parametrize("loss", [0.0, 0.05])
@pytest.mark.parametrize("source", sorted(SOURCES))
def test_deliveries_plus_drops_equal_messages(source, loss):
    config = SOURCES[source]().with_(message_loss_probability=loss)
    scalar = run_simulation(config.with_(kernel="scalar"))
    counters = scalar.counters
    assert counters.deliveries + counters.drops == counters.messages
    if loss == 0.0:
        assert counters.drops == 0 or "failures" in source
    assert 0.0 <= scalar.loss_of_fidelity <= 100.0
    _assert_reconfigured(source, scalar)
    assert run_simulation(config.with_(kernel="vectorized")) == scalar


@pytest.mark.parametrize("source", sorted(SOURCES))
@pytest.mark.parametrize("plane", sorted(PLANES))
def test_every_plane_runs_the_source_like_the_oracle_or_refuses(plane, source):
    for loss in (0.0, 0.05):
        config = SOURCES[source]().with_(message_loss_probability=loss)
        if (plane, source) in REFUSED:
            with pytest.raises(ConfigurationError):
                PLANES[plane](config)
            continue
        result = PLANES[plane](config)
        oracle = PLANES["scalar"](config)
        counters = result.counters
        assert result.conserved
        _assert_reconfigured(source, result)
        assert counters == oracle.counters
        assert result.loss_of_fidelity == oracle.loss_of_fidelity
        assert result.per_repository_loss == oracle.per_repository_loss
        assert result.extras["per_pair_loss"] == oracle.extras["per_pair_loss"]
        assert result.tree_stats == oracle.tree_stats
