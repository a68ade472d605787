"""A run's scores equal the per-pair reference, re-scored from its logs.

Every plane scores a whole run in one chunked pass
(:func:`repro.core.fidelity.segmented_losses`).  This pins that pass to
the per-pair scorer it replaced (``tests/core/reference_fidelity.py``):
after a run, each (repository, item) pair is scored again from the
run's own delivery log and scoring segments, one pair at a time, and
``extras["per_pair_loss"]`` -- values bit for bit *and* insertion order,
which is the order the accumulator saw them -- and the headline
``loss_of_fidelity`` must come out the same.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.core.dissemination.filtering import FILTERED_POLICIES
from repro.core.fidelity import FidelityAccumulator, scoring_windows
from repro.engine.builder import build_setup
from repro.engine.churn import schedule_for_config
from repro.engine.config import SCALE_PRESETS, PullConfig
from repro.engine.failures import failures_for_config
from repro.engine.simulation import make_simulation
from repro.live.harness import build_live_network, run_live

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "core"))
from reference_fidelity import rescore  # noqa: E402

BASE = SCALE_PRESETS["tiny"].with_(seed=11)


def _mixed(config):
    """Churn, failures and 5 % message loss on one run."""
    return config.with_(
        churn=schedule_for_config(config, joins=1, departs=1, updates=1),
        failures=failures_for_config(config, crashes=1, partitions=1),
        message_loss_probability=0.05,
    )


MIXES = {"static": lambda config: config, "churn_failure_loss": _mixed}


def _engine(config):
    simulation = make_simulation(build_setup(config))
    result = simulation.run()
    return result, simulation.setup.traces, simulation._reconfig.segments, simulation.log


def _oracle(config):
    return _engine(config.with_(kernel="scalar"))


def _inprocess(config):
    network = build_live_network(config)
    result = run_live(config, "inprocess", network=network)
    return result, network.setup.traces, network.reconfig.segments, network.log


PLANES = {"engine": _engine, "oracle": _oracle, "inprocess": _inprocess}


def _assert_rescored(result, per_pair):
    scored = result.extras["per_pair_loss"]
    assert list(scored) == list(per_pair)
    assert [loss.hex() for loss in scored.values()] == [
        loss.hex() for loss in per_pair.values()
    ]
    accumulator = FidelityAccumulator()
    for (repo, item_id), loss in per_pair.items():
        accumulator.add(repo, item_id, loss)
    assert result.loss_of_fidelity.hex() == accumulator.system_loss().hex()


@pytest.mark.parametrize("mix", MIXES)
@pytest.mark.parametrize("policy", FILTERED_POLICIES)
@pytest.mark.parametrize("plane", PLANES)
def test_a_run_scores_as_the_per_pair_reference(plane, policy, mix):
    config = MIXES[mix](BASE.with_(policy=policy))
    result, traces, segments, log = PLANES[plane](config)
    logs = {pair: log(*pair) for pair in segments}
    per_pair = rescore(traces, logs, segments, scoring_windows(traces))
    if mix != "static":
        assert any(len(pair_segments) > 1 for pair_segments in segments.values())
    _assert_rescored(result, per_pair)


@pytest.mark.parametrize("threshold_c", [0.0, 0.1], ids=["pull", "hybrid"])
def test_a_pull_run_scores_as_the_per_pair_reference(threshold_c):
    config = BASE.with_(pull=PullConfig(ttr_s=5.0, threshold_c=threshold_c))
    result, traces, segments, log = _engine(config)
    logs = {pair: log(*pair) for pair in segments}
    _assert_rescored(result, rescore(traces, logs, segments, scoring_windows(traces)))
