"""The live_crosscheck experiment: the generated plane × policy × feature table.

One run of the table at ``tiny`` (module fixture) answers one test per
cell, parametrized over the module's own planes, policies and features
and judged by the module's own :func:`fault`, so tier-1 and the
experiment's verdict agree; every exception (refused, known defect) is
the module's declaration, read here.  The mutation tests
below run the in-process static slice with one field of one plane's
result moved, and check the table fails naming the cell and the field.
"""

import copy
import dataclasses
import functools
import itertools
import json
import math

import pytest

from repro.core.dissemination.filtering import FILTERED_POLICIES
from repro.core.metrics import CostCounters
from repro.engine.results import SimulationResult
from repro.errors import ConfigurationError, RefutedError
from repro.experiments import api, live_crosscheck
from repro.experiments.live_crosscheck import (
    CLIENTS,
    FEATURES,
    KNOWN_DEFECTS,
    PLANES,
    REFUSED,
    SPEC,
    STRICT_DEFECTS,
    TIME_SCALE,
    compare,
    expected,
    fault,
)
from repro.fleet import run_fleet
from repro.live import run_live

pytestmark = pytest.mark.live

CELLS = list(itertools.product(PLANES, FILTERED_POLICIES, FEATURES))


@pytest.fixture(scope="module")
def ctx():
    return api.ExperimentContext(preset="tiny")


@pytest.fixture(scope="module")
def payload(ctx):
    results = api.execute_plan(SPEC.plan(ctx))
    return live_crosscheck.table(ctx, tuple(results))


def _states(payload, state) -> set:
    return {
        cell for cell in CELLS
        if payload["cells"][cell[0]][cell[1]][cell[2]]["state"] == state
    }


def test_registered_with_no_parameters():
    assert SPEC.description
    assert SPEC.params == ()
    assert SPEC.collect is live_crosscheck.table
    assert SPEC.check is live_crosscheck.check


def test_plan_is_one_config_per_policy_and_feature(ctx):
    plan = SPEC.plan(ctx)
    assert len(plan) == len(FILTERED_POLICIES) * len(FEATURES) == 28
    assert len(set(plan)) == len(plan)
    assert [config.policy for config in plan] == [
        policy for policy in FILTERED_POLICIES for _feature in FEATURES
    ]
    assert all(config.clients_per_repository == CLIENTS for config in plan)
    for config, feature in zip(plan, itertools.cycle(FEATURES)):
        assert (config.message_loss_probability > 0) == (feature in ("loss", "all"))
        assert (config.churn is not None) == (feature in ("churn", "reconfig", "all"))
        assert (config.failures is not None) == (
            feature in ("failures", "reconfig", "all")
        )
        assert (config.adaptive is not None) == (
            feature in ("adaptive", "reconfig", "all")
        )


@pytest.mark.parametrize("cell", CELLS, ids=["-".join(cell) for cell in CELLS])
def test_cell(payload, cell):
    # The experiment's own verdict on the cell: its declared state, or a
    # known defect's miss.
    assert fault(payload, *cell) is None, payload["cells"][cell[0]][cell[1]][cell[2]]


def test_the_declared_exceptions():
    assert REFUSED == {
        ("fleet", feature)
        for feature in ("churn", "failures", "adaptive", "reconfig", "all")
    }
    # Each known defect is a real cell; a strict one is a known defect.
    assert set(KNOWN_DEFECTS) <= set(CELLS)
    assert STRICT_DEFECTS <= set(KNOWN_DEFECTS)


def test_the_refused_cells_are_the_fleet_under_schedules_or_adaptation(payload, ctx):
    refused = {cell for cell in CELLS if expected(cell[0], cell[2]) == "refused"}
    assert _states(payload, "refused") == refused
    for plane, policy, feature in sorted(refused):
        base = ctx.base_config().with_(clients_per_repository=CLIENTS, policy=policy)
        # The fleet's own up-front message, raised before any worker starts.
        with pytest.raises(ConfigurationError) as refusal:
            run_fleet(FEATURES[feature](base), workers=2, time_scale=TIME_SCALE)
        assert payload["cells"][plane][policy][feature]["reason"] == str(refusal.value)


def test_every_feature_reaches_its_machinery(payload):
    for policy, rows in payload["engine"].items():
        assert rows["static"]["drops"] == rows["static"]["reconfigurations"] == 0
        assert rows["static"]["edges_added"] == 0
        assert rows["loss"]["drops"] > 0
        for feature in ("adaptive", "reconfig", "all"):
            assert rows[feature]["rewires"] > 0, (policy, feature)
        for feature in ("failures", "reconfig", "all"):
            assert rows[feature]["drops"] > 0, (policy, feature)
            assert rows[feature]["resyncs"] > 0, (policy, feature)
            # A crash fails its dependents over to a new parent.
            assert rows[feature]["edges_added"] > 0, (policy, feature)
        for feature in ("churn", "reconfig", "all"):
            assert rows[feature]["reconfigurations"] > 0, (policy, feature)


def test_the_table_passes_its_own_check(payload):
    live_crosscheck.check(payload)


def _with(payload, cell, outcome, measured=True) -> dict:
    moved = copy.deepcopy(payload)
    moved["defects_measured"] = measured
    plane, policy, feature = cell
    moved["cells"][plane][policy][feature] = outcome
    return moved


def _judged(payload) -> str:
    with pytest.raises(RefutedError) as error:
        live_crosscheck.check(payload)
    return str(error.value)


def test_check_fails_a_refusal_outside_the_declared_set(payload):
    refusal = {"state": "refused", "reason": "no such plane"}
    for cell in [("fleet", "centralized", "static"), ("tcp", "flooding", "churn")]:
        message = _judged(_with(payload, cell, refusal))
        assert "1 cell(s)" in message
        assert f"{' × '.join(cell)}: refused where exact is declared (no such plane)" in message


def test_check_fails_a_declared_refusal_that_ran(payload):
    message = _judged(_with(payload, ("fleet", "distributed", "churn"), {"state": "exact"}))
    assert "fleet × distributed × churn: exact where refused is declared (ran)" in message


def test_check_fails_a_strict_known_defect_that_agrees(payload):
    (cell,) = STRICT_DEFECTS
    moved = _with(payload, cell, {"state": expected(cell[0], cell[2])})
    message = _judged(moved)
    assert f"{' × '.join(cell)}: exact, but declared a known defect" in message
    # Off the config it was measured on, a known defect may go either way.
    moved["defects_measured"] = False
    live_crosscheck.check(moved)


def test_a_known_defect_reads_so_and_passes(payload):
    ctx = api.ExperimentContext(preset="tiny")
    assert live_crosscheck.table(ctx, ())["defects_measured"]
    for cell in KNOWN_DEFECTS:
        live_crosscheck.check(
            _with(payload, cell, {"state": "known defect", "reason": KNOWN_DEFECTS[cell]})
        )
    # A known defect is a declared cell, not a state any cell may take.
    assert "tcp × distributed × reconfig" in _judged(
        _with(payload, ("tcp", "distributed", "reconfig"),
              {"state": "differs", "differs": ["loss_of_fidelity"]})
    )


def test_render_shows_every_row_and_the_exceptions(payload):
    text = SPEC.render(payload)
    for policy, feature in itertools.product(FILTERED_POLICIES, FEATURES):
        assert any(line.split()[:2] == [policy, feature] for line in text.splitlines())
    assert "fleet × churn refused: the fleet runs static membership" in text
    for cell, reason in KNOWN_DEFECTS.items():
        if payload["cells"][cell[0]][cell[1]][cell[2]]["state"] == "known defect":
            assert f"{' × '.join(cell)} known defect: {reason}" in text


def test_payload_is_artifact_serialisable(payload, tmp_path):
    path = api.write_artifact(tmp_path, "live_crosscheck", "tiny", {}, payload)
    assert json.loads(path.read_text())["payload"]["cells"] == json.loads(
        json.dumps(payload["cells"])
    )


# -- the comparison fails on one moved field --------------------------------


@functools.cache
def _inprocess(policy: str):
    config = api.ExperimentContext(preset="tiny").base_config()
    return run_live(config.with_(clients_per_repository=CLIENTS, policy=policy))


def _collect_static_with(monkeypatch, plane) -> dict:
    """Collect and check the in-process static slice, ``plane`` standing
    in for the in-process plane."""
    monkeypatch.setattr(live_crosscheck, "PLANES", {"inprocess": plane})
    monkeypatch.setattr(live_crosscheck, "FEATURES", {"static": FEATURES["static"]})
    ctx = api.ExperimentContext(preset="tiny")
    payload = SPEC.collect(ctx, tuple(api.execute_plan(SPEC.plan(ctx))))
    SPEC.check(payload)
    return payload


def _moved(mutate):
    """The in-process plane, with ``mutate`` applied to the centralised
    run's result."""

    def plane(config):
        result = copy.deepcopy(_inprocess(config.policy))
        if config.policy == "centralized":
            mutate(result)
        return result

    return plane


def _next_ulp(result):
    losses = result.extras["per_pair_loss"]
    pair = next(iter(losses))
    losses[pair] = math.nextafter(losses[pair], math.inf)


def _renamed_workload(result):
    result.extras["workload"] += "-moved"


COUNTERS = [f.name for f in dataclasses.fields(CostCounters) if f.type in (int, "int")]

MUTATIONS = {
    "per-pair-loss-ulp": (_next_ulp, "extras['per_pair_loss']"),
    "extras-key": (_renamed_workload, "extras['workload']"),
    **{
        f"counters-{name}": (
            lambda result, name=name: setattr(
                result.counters, name, getattr(result.counters, name) + 1
            ),
            f"counters.{name}",
        )
        for name in COUNTERS
    },
}


def test_every_int_counter_is_mutated():
    assert {"messages", "client_messages", "resync_messages"} <= set(COUNTERS)


def test_the_unmoved_static_slice_is_exact(monkeypatch):
    payload = _collect_static_with(monkeypatch, _moved(lambda result: None))
    assert {
        policy: cells["static"]["state"]
        for policy, cells in payload["cells"]["inprocess"].items()
    } == dict.fromkeys(FILTERED_POLICIES, "exact")


@pytest.mark.parametrize("mutate, field", MUTATIONS.values(), ids=MUTATIONS)
def test_one_moved_field_fails_the_table_naming_cell_and_field(
    monkeypatch, mutate, field
):
    with pytest.raises(RefutedError) as error:
        _collect_static_with(monkeypatch, _moved(mutate))
    message = str(error.value)
    assert "1 cell(s)" in message
    assert f"inprocess × centralized × static: {field}" in message


def test_a_plane_raising_anything_else_fails_the_table(monkeypatch):
    def plane(config):
        if config.policy == "centralized":
            raise RuntimeError("worker lost")
        return _inprocess(config.policy)

    with pytest.raises(RefutedError) as error:
        _collect_static_with(monkeypatch, plane)
    assert "inprocess × centralized × static: RuntimeError: worker lost" in str(
        error.value
    )


def test_a_plane_raising_a_configuration_error_refuses_the_cell(monkeypatch):
    def plane(config):
        if config.policy == "centralized":
            raise ConfigurationError("not on this plane")
        return _inprocess(config.policy)

    # Refused -- which the in-process plane is declared never to be.
    with pytest.raises(RefutedError) as error:
        _collect_static_with(monkeypatch, plane)
    assert (
        "inprocess × centralized × static: refused where exact is declared "
        "(not on this plane)"
    ) in str(error.value)


# -- compare reads every field of the result ---------------------------------


#: Every field of the result, a counter as ``counters.NAME``.
FIELDS = [
    f.name for f in dataclasses.fields(SimulationResult) if f.name != "counters"
] + [f"counters.{f.name}" for f in dataclasses.fields(CostCounters)]


def _other(value):
    """A value of ``value``'s shape that differs from it: one number
    moved, down through a dataclass's first field or a dict's first key."""
    if dataclasses.is_dataclass(value):
        first = dataclasses.fields(value)[0].name
        return dataclasses.replace(value, **{first: _other(getattr(value, first))})
    if isinstance(value, dict):
        key = next(iter(value))
        return {**value, key: _other(value[key])}
    if isinstance(value, str):
        return value + "-moved"
    return value + 1


@pytest.mark.parametrize("path", FIELDS)
def test_compare_names_every_field_of_the_result(path):
    sim = _inprocess("distributed")
    live = copy.deepcopy(sim)
    owner, _, name = path.rpartition(".")
    target = getattr(live, owner) if owner else live
    setattr(target, name, _other(getattr(target, name)))
    assert compare(sim, copy.deepcopy(sim)) == []
    assert any(
        differ == path or differ.startswith((f"{path}.", f"{path}["))
        for differ in compare(sim, live)
    ), compare(sim, live)
