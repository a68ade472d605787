"""Unit tests for churn schedules and the synthetic generator."""

import pickle
import re

import pytest

from repro.engine import churn
from repro.engine.churn import (
    ChurnEvent,
    ChurnSchedule,
    parse_churn_spec,
    schedule_for_config,
    synthetic_schedule,
)
from repro.engine.config import SCALE_PRESETS
from repro.errors import ConfigurationError


# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------

def test_event_constructors_and_freezing():
    join = ChurnEvent.join(5.0, 3, requirements={1: 0.2, 0: 0.1})
    assert join.requirements == ((0, 0.1), (1, 0.2))
    update = ChurnEvent.update(6.0, 3, [(2, 0.5)])
    assert update.requirements == ((2, 0.5),)
    depart = ChurnEvent.depart(7.0, 3)
    assert depart.requirements is None
    assert join.profile().requirements == {0: 0.1, 1: 0.2}
    assert ChurnEvent.join(5.0, 3).profile() is None


def test_event_validation():
    with pytest.raises(ConfigurationError):
        ChurnEvent(time=-1.0, kind="join", repository=1)
    with pytest.raises(ConfigurationError):
        ChurnEvent(time=1.0, kind="teleport", repository=1)
    with pytest.raises(ConfigurationError):
        ChurnEvent(time=1.0, kind="update", repository=1)  # no requirements
    with pytest.raises(ConfigurationError):
        ChurnEvent.depart(1.0, 1).__class__(
            time=1.0, kind="depart", repository=1, requirements=((0, 0.1),)
        )
    with pytest.raises(ConfigurationError):
        ChurnEvent.update(1.0, 1, {0: -0.5})
    with pytest.raises(ConfigurationError):
        ChurnEvent.update(1.0, 1, [(0, 0.1), (0, 0.2)])  # duplicate item


def test_events_are_hashable_and_picklable():
    event = ChurnEvent.update(3.0, 2, {0: 0.25})
    assert hash(event) == hash(pickle.loads(pickle.dumps(event)))


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------

def test_schedule_sorts_by_time_and_counts():
    schedule = ChurnSchedule(
        (
            ChurnEvent.depart(20.0, 2),
            ChurnEvent.join(10.0, 5),
            ChurnEvent.update(15.0, 1, {0: 0.3}),
        )
    )
    assert [e.time for e in schedule] == [10.0, 15.0, 20.0]
    assert len(schedule) == 3 and bool(schedule)
    assert schedule.count("join") == 1
    assert schedule.count("depart") == 1
    assert schedule.count("update") == 1
    with pytest.raises(ConfigurationError):
        schedule.count("teleport")
    assert not ChurnSchedule()


def test_a_join_freezes_its_requirements_once(monkeypatch):
    calls = []
    freeze = churn._freeze_requirements

    def counting(requirements):
        calls.append(requirements)
        return freeze(requirements)

    monkeypatch.setattr(churn, "_freeze_requirements", counting)
    event = ChurnEvent.join(1.0, 5, {1: 0.2, 0: 0.1})
    assert len(calls) == 1
    assert event.requirements == ((0, 0.1), (1, 0.2))
    assert ChurnEvent.join(1.0, 5).requirements is None and len(calls) == 1
    # An update freezes ahead of its emptiness check, and again after.
    assert ChurnEvent.update(2.0, 5, iter([(0, 0.1)])).requirements == ((0, 0.1),)
    with pytest.raises(ConfigurationError, match="must carry"):
        ChurnEvent.update(2.0, 5, iter(()))


def test_schedule_rejects_non_events():
    with pytest.raises(ConfigurationError):
        ChurnSchedule(("join",))


def test_late_joiners_are_first_event_joins():
    schedule = ChurnSchedule(
        (
            ChurnEvent.join(10.0, 5),
            ChurnEvent.depart(20.0, 5),
            ChurnEvent.depart(12.0, 2),  # initial member departs
        )
    )
    # Only a first-event join starts away: 2 departs first, and 5's
    # departure comes after its join.
    assert schedule.walk() == {5}


def test_initial_members_validates_transitions():
    pool = range(1, 6)
    good = ChurnSchedule(
        (ChurnEvent.join(10.0, 5), ChurnEvent.depart(20.0, 2))
    )
    assert good.initial_members(pool) == [1, 2, 3, 4]

    with pytest.raises(ConfigurationError):  # unknown repository
        ChurnSchedule((ChurnEvent.depart(1.0, 99),)).initial_members(pool)
    with pytest.raises(ConfigurationError):  # departs twice
        ChurnSchedule(
            (ChurnEvent.depart(1.0, 2), ChurnEvent.depart(2.0, 2))
        ).initial_members(pool)
    with pytest.raises(ConfigurationError):  # update after departure
        ChurnSchedule(
            (ChurnEvent.depart(1.0, 2), ChurnEvent.update(2.0, 2, {0: 0.1}))
        ).initial_members(pool)
    with pytest.raises(ConfigurationError):  # joins twice
        ChurnSchedule(
            (ChurnEvent.join(1.0, 5), ChurnEvent.join(2.0, 5))
        ).initial_members(pool)
    # Unlike a failure subject's, a repository's events may share an
    # instant: they apply in construction order.
    tied = ChurnSchedule((ChurnEvent.depart(1.0, 2), ChurnEvent.join(1.0, 2)))
    assert tied.initial_members(pool) == [1, 2, 3, 4, 5]
    assert tied.walk() == set()
    with pytest.raises(ConfigurationError, match=re.escape(
        "t=2.0: 2 cannot update while departed"
    )):
        ChurnSchedule(
            (ChurnEvent.depart(1.0, 2), ChurnEvent.update(2.0, 2, {0: 0.1}))
        ).walk()


def test_schedules_hash_equal_when_equal():
    a = ChurnSchedule((ChurnEvent.depart(1.0, 2),))
    b = ChurnSchedule((ChurnEvent.depart(1.0, 2),))
    assert a == b and hash(a) == hash(b)
    config = SCALE_PRESETS["tiny"].with_(churn=a)
    assert config == SCALE_PRESETS["tiny"].with_(churn=b)
    assert hash(config) == hash(SCALE_PRESETS["tiny"].with_(churn=b))


# ----------------------------------------------------------------------
# Synthetic generator
# ----------------------------------------------------------------------

def _generate(seed=7, **kwargs):
    defaults = dict(
        repositories=range(1, 21), n_items=5, span_s=500.0, seed=seed
    )
    defaults.update(kwargs)
    return synthetic_schedule(**defaults)


def test_generator_respects_counts_and_window():
    schedule = _generate(joins=3, departs=2, updates=4)
    assert schedule.count("join") == 3
    assert schedule.count("depart") == 2
    assert schedule.count("update") == 4
    for event in schedule:
        assert 0.05 * 500.0 <= event.time <= 0.85 * 500.0
    # Valid by construction against its own pool.
    schedule.initial_members(range(1, 21))


def test_generator_is_deterministic_in_the_seed():
    assert _generate(joins=2, departs=2, updates=2) == _generate(
        joins=2, departs=2, updates=2
    )
    assert _generate(joins=2, departs=2, updates=2) != _generate(
        seed=8, joins=2, departs=2, updates=2
    )


def test_generator_update_events_carry_fresh_requirements():
    schedule = _generate(updates=5)
    for event in schedule:
        assert event.kind == "update"
        assert event.requirements
        for item_id, c in event.requirements:
            assert 0 <= item_id < 5
            assert c > 0


def test_generator_rejects_impossible_workloads():
    with pytest.raises(ConfigurationError):
        _generate(joins=25)  # more joins than repositories
    with pytest.raises(ConfigurationError):
        synthetic_schedule(
            repositories=[1, 2], n_items=2, span_s=100.0, departs=2, seed=1
        )  # would empty the network
    with pytest.raises(ConfigurationError):
        _generate(joins=-1)
    with pytest.raises(ConfigurationError):
        _generate(span_s=0.0, joins=1)
    with pytest.raises(ConfigurationError):
        _generate(joins=1, window=(0.9, 0.1))
    with pytest.raises(ConfigurationError):  # checked before zero counts short-cut
        _generate(window=(0.9, 0.1))


def test_generator_zero_counts_give_empty_schedule():
    assert _generate() == ChurnSchedule()


def test_schedule_for_config_uses_config_fields():
    config = SCALE_PRESETS["tiny"]
    schedule = schedule_for_config(config, joins=2, departs=1, updates=1)
    assert len(schedule) == 4
    schedule.initial_members(range(1, config.n_repositories + 1))
    # Seed-stable: the same config always yields the same schedule.
    assert schedule == schedule_for_config(config, joins=2, departs=1, updates=1)
    for event in schedule:
        assert event.time < config.trace_samples


# ----------------------------------------------------------------------
# CLI spec parsing
# ----------------------------------------------------------------------

def test_parse_churn_spec():
    assert parse_churn_spec("2,1,3") == (2, 1, 3)
    assert parse_churn_spec(" 0 , 0 , 1 ") == (0, 0, 1)
    for bad in ("2,1", "a,b,c", "1,2,3,4", "1,-2,3"):
        with pytest.raises(ConfigurationError):
            parse_churn_spec(bad)
