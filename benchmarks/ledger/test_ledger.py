"""Tier-1 checks of the perf ledger itself: declaration, smoke, compare, spans."""

from __future__ import annotations

import copy
import json
import math
import multiprocessing
import os
import re
import time
from multiprocessing import resource_tracker

import pytest

from benchmarks.ledger import harness, run, sim_workloads
from benchmarks.ledger.compare import compare
from benchmarks.ledger.harness import Outcome, ReferenceClock
from benchmarks.ledger.spans import Tracer, self_times

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SHRINK = 0.1


@pytest.fixture(scope="module")
def declaration() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def interactions() -> dict:
    return json.loads((run.ROOT / "benchmarks/ledger/interactions.json").read_text())


def test_declaration_meets_the_contract(declaration):
    assert set(declaration) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert declaration["paths"] == ["benchmarks/ledger"]
    assert declaration["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert isinstance(declaration["run_seconds"], int) and 1 <= declaration["run_seconds"] <= 60
    assert 2 <= len(declaration["workloads"]) <= 8
    assert 1 <= len(declaration["end_to_end"]) <= 16
    assert 1 <= len(declaration["per_layer"]) <= 128
    for workload in declaration["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    for metric in declaration["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in declaration["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in declaration[section]
    ]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.fullmatch(name) for name in names)
    for metric in declaration["end_to_end"] + declaration["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in declaration["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in declaration["end_to_end"])


def test_every_layer_says_what_it_should_move(declaration, interactions):
    workloads = {w["name"] for w in declaration["workloads"]}
    end_to_end = {m["name"] for m in declaration["end_to_end"]}
    per_layer = {m["name"] for m in declaration["per_layer"]}
    assert set(interactions["layers"]) == per_layer
    assert {"loss_of_fidelity_pct", "messages_per_update"} <= set(interactions["exact"])
    assert set(interactions["exact"]) <= per_layer
    for layer, entry in interactions["layers"].items():
        assert entry["flat"], f"{layer} does not say where it should not move"
        for move in entry["moves"]:
            assert move["metric"] in end_to_end | per_layer, (layer, move)
            assert move["workload"] in workloads, (layer, move)


@pytest.fixture
def instant_calibration(monkeypatch):
    """The smoke passes time dozens of calls; a real 0.24 s calibration
    around each is what the clock's own test covers."""
    monkeypatch.setattr(harness, "calibrate", lambda: harness.REFERENCE_CALIBRATION_S)


@pytest.mark.live
@pytest.mark.parametrize("workload", ["sim_deep", "sim_fanout", "figure_sweep", "live_wire"])
def test_shrunk_workload_emits_every_declared_metric(workload, instant_calibration):
    catalog = run.load_catalog()
    entered = set()
    for trace in (False, True):
        outcome = run.run_workload(workload, seed=7, seconds=0.0, trace=trace, shrink=SHRINK)
        assert outcome.correct, outcome.problems
        assert outcome.attempted >= 1 and outcome.failed == 0
        metrics = run.contract_metrics(outcome, trace, catalog)
        assert set(metrics) == set(catalog["per_layer" if trace else "end_to_end"])
        assert all(math.isfinite(m["value"]) for m in metrics.values())
        if trace:
            entered = {name for name, m in metrics.items() if m["value"] != 0}
            assert (run.ROOT / ".ledger" / f"trace_{workload}.json").is_file()
        else:
            assert all(m["value"] > 0 for m in metrics.values())
    assert "ledger.trace_overhead_ratio" in entered
    # Each workload enters its own layers and none of a plane it bypasses.
    own = {"sim_deep": "obs.trace.spans", "sim_fanout": "core.filtering.many1000_ns",
           "figure_sweep": "experiments.sweep_s", "live_wire": "fleet.replay_s"}
    for name, layer in own.items():
        assert (layer in entered) == (name == workload), (workload, layer)


def test_tampered_result_fails_the_run(monkeypatch, capsys, instant_calibration):
    real = sim_workloads.make_simulation

    class Tampered:
        def __init__(self, setup):
            self.simulation = real(setup)

        def run(self):
            result = self.simulation.run()
            result.counters.messages += 1  # a message nobody delivered or dropped
            return result

    monkeypatch.setattr(sim_workloads, "make_simulation", Tampered)
    outcome = run.run_workload("sim_deep", seed=7, seconds=0.0, trace=False, shrink=SHRINK)
    assert not outcome.correct and outcome.failed == outcome.attempted

    monkeypatch.setattr(run, "run_workload", lambda *args, **kwargs: outcome)
    assert run.main(["--workload", "sim_deep"]) == 1
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed["correct"] is False and printed["failed"] == outcome.failed


def test_no_process_outlives_the_run(monkeypatch):
    worker = multiprocessing.get_context("spawn").Process(target=time.sleep, args=(60,))
    worker.start()  # like a fleet worker: also starts the resource tracker
    tracker_pid = resource_tracker._resource_tracker._pid
    assert worker.is_alive() and tracker_pid is not None

    def fails(*args, **kwargs):
        raise RuntimeError("died mid-run")

    monkeypatch.setattr(run, "run_workload", fails)
    with pytest.raises(RuntimeError):
        run.main(["--workload", "live_wire"])
    assert not worker.is_alive() and not multiprocessing.active_children()
    with pytest.raises(ProcessLookupError):  # stopped and waited for
        os.kill(tracker_pid, 0)


def test_undeclared_or_missing_metric_is_refused():
    catalog = run.load_catalog()
    with pytest.raises(SystemExit, match="not declared"):
        run.contract_metrics(Outcome(metrics={"made_up_s": 1.0}), True, catalog)
    with pytest.raises(SystemExit, match="not measured"):
        run.contract_metrics(Outcome(metrics={"run_s": 1.0}), False, catalog)


def _results(catalog: dict, interactions: dict) -> dict:
    """A minimal well-formed results file: every metric reads 100."""
    entry = {
        "correct": True,
        "attempted": 3,
        "failed": 0,
        "end_to_end": {
            name: {"value": 100.0, "unit": spec["unit"], "samples": [99.0, 100.0, 101.0]}
            for name, spec in catalog["end_to_end"].items()
        },
        "per_layer": {name: {"value": 100.0} for name in interactions["exact"]},
    }
    return {
        "seed": 1,
        "definitions": {"sim_deep": "x"},
        "machine": {"nproc": 2},
        "workloads": {name: copy.deepcopy(entry) for name in catalog["workloads"]},
    }


def test_compare_verdicts(interactions):
    catalog = run.load_catalog()
    old = _results(catalog, interactions)
    bound = catalog["end_to_end"]["run_s"]["bound"]

    def status(change) -> int:
        new = copy.deepcopy(old)
        change(new)
        lines, code = compare(old, new, catalog, interactions)
        assert lines[-1] == ("PASS" if code == 0 else "FAIL") or code == 2
        return code

    def set_metric(workload, section, name, value):
        def change(new):
            new["workloads"][workload][section][name]["value"] = value
        return change

    assert status(lambda new: None) == 0
    within, beyond = 100.0 * (1 + bound / 2), 100.0 * (1 + 2 * bound)
    assert status(set_metric("sim_deep", "end_to_end", "run_s", within)) == 0
    assert status(set_metric("sim_deep", "end_to_end", "run_s", beyond)) == 1
    # Direction matters: a throughput that grows past the bound is fine,
    # one that shrinks past it is not.
    assert status(set_metric("live_wire", "end_to_end", "messages_per_s", beyond)) == 0
    assert status(set_metric("live_wire", "end_to_end", "messages_per_s", 100.0 - 2 * bound * 100)) == 1
    # Simulated metrics and exact counts may not move at all.
    assert status(set_metric("figure_sweep", "per_layer", "loss_of_fidelity_pct", 100.0001)) == 1
    assert status(set_metric("sim_fanout", "per_layer", "engine.events", 101.0)) == 1
    assert status(lambda new: new["workloads"]["sim_deep"].update(failed=1)) == 1
    # Not comparable at all.
    assert status(lambda new: new.update(seed=2)) == 2
    assert status(lambda new: new["definitions"].update(sim_deep="y")) == 2
    assert status(lambda new: new["machine"].update(nproc=8)) == 2


def test_reference_clock_divides_out_the_machine_slowdown(monkeypatch):
    # The loop ran 1.5x, then 2.5x its reference time around the call:
    # the machine was 2x slow, so 4 raw seconds read as 2.
    readings = iter([1.5, 2.5])
    monkeypatch.setattr(
        harness, "calibrate", lambda: next(readings) * harness.REFERENCE_CALIBRATION_S
    )
    monkeypatch.setattr(harness, "timed", lambda fn: (fn(), 4.0))
    clock = ReferenceClock()
    assert clock.timed(lambda: "result") == ("result", pytest.approx(2.0))
    assert clock.raw_seconds == [4.0] and clock.slowdowns == [pytest.approx(2.0)]
    assert "2.000x" in clock.note()


def test_span_self_time_on_a_hand_built_tree():
    def span(name, start, end, parent):
        return {"name": name, "start": start, "end": end, "parent": parent, "workload": "w"}

    spans = [
        span("root", 0.0, 10.0, None),
        span("a", 1.0, 4.0, 0),
        span("b", 2.0, 3.0, 1),  # grandchild: charged to "a", not to "root"
        span("a", 5.0, 7.0, 0),
        span("c", 7.0, 9.5, 0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({"root": 10.0 - 3.0 - 2.0 - 2.5, "a": 2.0 + 2.0, "b": 1.0, "c": 2.5})
    assert sum(own.values()) == pytest.approx(10.0)


def test_tracer_nests_spans_and_reports_layers():
    tracer = Tracer("w")
    with tracer.span("outer"):
        value, seconds = tracer.call("inner", lambda: 42)
    assert value == 42 and seconds >= 0.0
    outer, inner = tracer.spans
    assert outer["parent"] is None and inner["parent"] == 0
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    assert set(tracer.layer_seconds(("inner", "absent"))) == {"inner_s"}
