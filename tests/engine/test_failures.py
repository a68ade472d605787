"""Failure schedules and their execution: validation, goldens, identity.

The golden-seed section pins the PR's central equivalence claim: the
scalar oracle and the vectorized kernel produce *identical*
``SimulationResult`` objects under crash-only, partition-only and
crash-then-recover schedules -- full dataclass equality, so one ``==``
covers fidelity, every counter (drops, failovers, resyncs) and the
event count at float bit-exactness.
"""

from __future__ import annotations

import pytest

from repro.engine.builder import build_setup
from repro.engine.config import SCALE_PRESETS
from repro.engine.failures import (
    FailureEvent,
    FailureSchedule,
    failures_for_config,
    parse_failure_spec,
    synthetic_failures,
)
from repro.engine.simulation import run_simulation
from repro.errors import ConfigurationError

BASE = SCALE_PRESETS["tiny"].with_(n_items=3, trace_samples=300)


def _service_edges(config):
    """Real (sender, receiver) service edges of the built ``d3g``."""
    setup = build_setup(config)
    return sorted(
        (node, child)
        for node, state in setup.graph.nodes.items()
        for child, items in state.children.items()
        if items
    )


def _pair(config):
    scalar = run_simulation(config.with_(kernel="scalar"))
    vector = run_simulation(config.with_(kernel="vectorized"))
    return scalar, vector


def _assert_conserved(result):
    assert (
        result.counters.deliveries + result.counters.drops
        == result.counters.messages
    )


# --- event and schedule validation ----------------------------------------


def test_event_validation():
    with pytest.raises(ConfigurationError):
        FailureEvent(time=-1.0, kind="crash", repository=1)
    with pytest.raises(ConfigurationError):
        FailureEvent(time=0.0, kind="meteor", repository=1)
    with pytest.raises(ConfigurationError):
        FailureEvent(time=0.0, kind="crash", link=(0, 1))  # repo kind, link arg
    with pytest.raises(ConfigurationError):
        FailureEvent(time=0.0, kind="link_down", repository=1)
    with pytest.raises(ConfigurationError):
        FailureEvent.link_down(0.0, 3, 3)  # self-link


def test_schedule_sorts_and_counts():
    schedule = FailureSchedule((
        FailureEvent.recover(20.0, 1),
        FailureEvent.crash(10.0, 1),
        FailureEvent.link_down(5.0, 0, 2),
    ))
    assert [e.time for e in schedule] == [5.0, 10.0, 20.0]
    assert len(schedule) == 3 and bool(schedule)
    assert schedule.count("crash") == 1
    assert schedule.count("link_up") == 0
    with pytest.raises(ConfigurationError):
        schedule.count("meteor")


def test_schedule_alternation_enforced():
    with pytest.raises(ConfigurationError):  # double crash
        FailureSchedule((
            FailureEvent.crash(1.0, 1), FailureEvent.crash(2.0, 1)
        ))
    with pytest.raises(ConfigurationError):  # recover without crash
        FailureSchedule((FailureEvent.recover(1.0, 1),))
    with pytest.raises(ConfigurationError):  # same-instant pair
        FailureSchedule((
            FailureEvent.crash(1.0, 1), FailureEvent.recover(1.0, 1)
        ))
    with pytest.raises(ConfigurationError):  # up without down
        FailureSchedule((FailureEvent.link_up(1.0, 0, 1),))
    # Open windows (no repair before the end) are legal.
    FailureSchedule((FailureEvent.crash(1.0, 1),))


def test_validate_nodes_ranges():
    FailureSchedule((FailureEvent.crash(1.0, 5),)).validate_nodes(5)
    with pytest.raises(ConfigurationError):  # the source cannot crash
        FailureSchedule((FailureEvent.crash(1.0, 0),)).validate_nodes(5)
    with pytest.raises(ConfigurationError):
        FailureSchedule((FailureEvent.crash(1.0, 6),)).validate_nodes(5)
    with pytest.raises(ConfigurationError):
        FailureSchedule((FailureEvent.link_down(1.0, 0, 9),)).validate_nodes(5)


def test_windows_are_half_open_pairs():
    schedule = FailureSchedule((
        FailureEvent.crash(10.0, 2),
        FailureEvent.recover(30.0, 2),
        FailureEvent.crash(50.0, 2),
        FailureEvent.link_down(5.0, 1, 2),
    ))
    assert schedule.crash_windows() == {2: [(10.0, 30.0), (50.0, None)]}
    assert schedule.link_windows() == {(1, 2): [(5.0, None)]}
    # The logical-time predicates keep the kernels' tie-break: down at
    # the crash instant, up again at the recovery instant.
    down = [t for t in (9.9, 10.0, 29.9, 30.0, 49.9, 50.0, 1e9) if schedule.crashed_at(2, t)]
    assert down == [10.0, 29.9, 50.0, 1e9]
    assert not schedule.crashed_at(3, 20.0)
    assert schedule.link_down_at(1, 2, 5.0) and not schedule.link_down_at(1, 2, 4.9)
    assert not schedule.link_down_at(2, 1, 5.0)  # links are directed


def test_parse_failure_spec():
    assert parse_failure_spec("2,1") == (2, 1)
    assert parse_failure_spec(" 0 , 3 ") == (0, 3)
    for bad in ("2", "2,1,0", "a,b", "-1,0"):
        with pytest.raises(ConfigurationError):
            parse_failure_spec(bad)


# --- config integration and generation ------------------------------------


def test_config_carries_schedule_and_composes_with_churn():
    schedule = failures_for_config(BASE, crashes=1, partitions=1)
    config = BASE.with_(failures=schedule)
    assert config.failures is schedule
    from repro.engine.churn import schedule_for_config

    churn = schedule_for_config(BASE, joins=1, departs=1, updates=1)
    mixed = config.with_(churn=churn)
    engine = run_simulation(mixed)
    assert engine == run_simulation(mixed.with_(kernel="scalar"))
    assert engine.counters.deliveries + engine.counters.drops == engine.counters.messages
    assert engine.extras["churn_events"] == len(churn)
    assert engine.extras["failure_events"] == len(schedule)
    # An empty schedule normalises to None (cache-key friendly).
    assert BASE.with_(failures=FailureSchedule()).failures is None


def test_failures_for_config_is_deterministic_and_targeted():
    a = failures_for_config(BASE, crashes=2, partitions=2)
    b = failures_for_config(BASE, crashes=2, partitions=2)
    assert a == b
    assert a.count("crash") == 2 and a.count("recover") == 2
    assert a.count("link_down") == 2 and a.count("link_up") == 2
    edges = set(_service_edges(BASE))
    interior = {sender for sender, _ in edges if sender != 0}
    for event in a:
        if event.kind in ("crash", "recover"):
            assert event.repository in interior
        else:
            assert event.link in edges


def test_synthetic_failures_needs_targets():
    with pytest.raises(ConfigurationError):
        synthetic_failures(repositories=[], span_s=100.0, crashes=1)
    with pytest.raises(ConfigurationError):
        synthetic_failures(repositories=[1], span_s=100.0, partitions=1, links=())


# --- golden-seed kernel identity ------------------------------------------


def test_golden_crash_only_bit_identity():
    """A crash with no recovery: open availability window to the end."""
    sender, receiver = next(e for e in _service_edges(BASE) if e[0] != 0)
    config = BASE.with_(failures=FailureSchedule((
        FailureEvent.crash(90.0, sender),
    )))
    scalar, vector = _pair(config)
    assert scalar == vector
    _assert_conserved(scalar)
    assert scalar.counters.drops > 0
    assert scalar.counters.edges_added > 0  # orphans failed over
    assert scalar.counters.resyncs == 0  # nobody recovered
    assert scalar.extras["crashes"] == 1


def test_golden_partition_only_bit_identity():
    edge = _service_edges(BASE)[0]
    config = BASE.with_(failures=FailureSchedule((
        FailureEvent.link_down(60.0, *edge),
        FailureEvent.link_up(200.0, *edge),
    )))
    scalar, vector = _pair(config)
    assert scalar == vector
    _assert_conserved(scalar)
    assert scalar.counters.drops > 0
    assert scalar.counters.edges_added == 0  # partitions do not rewire
    assert scalar.extras["partitions"] == 1


def test_golden_crash_then_recover_bit_identity():
    config = BASE.with_(
        failures=failures_for_config(BASE, crashes=2, partitions=1)
    )
    scalar, vector = _pair(config)
    assert scalar == vector
    _assert_conserved(scalar)
    assert scalar.counters.resyncs == 2  # one anti-entropy pass per recovery
    assert scalar.counters.resync_checks >= scalar.counters.resync_messages
    assert scalar.counters.resync_checks > 0


@pytest.mark.parametrize("policy", ("distributed", "centralized"))
def test_golden_failures_with_loss_bit_identity(policy):
    """Failures compose with seeded Bernoulli loss on both kernels."""
    base = BASE.with_(policy=policy, message_loss_probability=0.05)
    config = base.with_(
        failures=failures_for_config(base, crashes=1, partitions=1)
    )
    scalar, vector = _pair(config)
    assert scalar == vector
    _assert_conserved(scalar)


def test_failed_runs_are_deterministic():
    config = BASE.with_(
        failures=failures_for_config(BASE, crashes=1, partitions=1)
    )
    assert run_simulation(config) == run_simulation(config)
