"""Shape and invariant tests for the adaptive_tradeoff experiment."""

import pytest

from repro.experiments import adaptive_tradeoff, api

#: One policy, both workloads: small enough for unit-test budgets and
#: it pins the headline claim -- this exact grid point dominates the
#: static baseline on flash_crowd at the tiny scale.
PARAMS = dict(windows=(30.0,), thresholds=(0.75,), max_rewires=(1,))
DOMINATING_KEY = "w=30,th=0.75,subtree,mr=1"


@pytest.fixture(scope="module")
def payload():
    return api.run_experiment(
        "adaptive_tradeoff", preset="tiny", jobs=1, params=PARAMS
    )


def test_payload_covers_every_workload_and_policy(payload):
    assert sorted(payload["workloads"]) == ["diurnal", "flash_crowd"]
    for block in payload["workloads"].values():
        assert list(block["policies"]) == [DOMINATING_KEY]
        assert set(block["static"]) == {"loss", "messages", "total_cost"}


def test_adaptation_dominates_static_on_flash_crowd(payload):
    flash = payload["workloads"]["flash_crowd"]
    assert flash["dominating"] == [DOMINATING_KEY]
    row = flash["policies"][DOMINATING_KEY]
    assert row["dominates"] is True
    assert row["rewires"] > 0
    assert row["loss"] < flash["static"]["loss"]
    assert row["total_cost"] <= flash["static"]["total_cost"]


def test_total_cost_charges_resubscriptions(payload):
    for block in payload["workloads"].values():
        assert block["static"]["total_cost"] == block["static"]["messages"]
        for row in block["policies"].values():
            assert row["total_cost"] == (
                row["messages"] + row["resubscriptions"]
            )
            if row["rewires"] > 0:
                assert row["resubscriptions"] > 0


def test_collect_reports_when_nothing_dominates():
    # A window longer than the trace span never ticks, so the adaptive
    # run reproduces the static one exactly -- never *strictly* better.
    payload = api.run_experiment(
        "adaptive_tradeoff",
        preset="tiny",
        jobs=1,
        params=dict(
            workloads="flash_crowd",
            windows=(10_000.0,),
            thresholds=(0.75,),
            max_rewires=(1,),
        ),
    )
    flash = payload["workloads"]["flash_crowd"]
    assert flash["dominating"] == []
    assert [row["dominates"] for row in flash["policies"].values()] == [False]
    assert "dominating: none" in adaptive_tradeoff.SPEC.render(payload)


def test_parallel_is_bit_identical_to_serial(payload):
    parallel = api.run_experiment(
        "adaptive_tradeoff", preset="tiny", jobs=4, params=PARAMS
    )
    assert parallel == payload


def test_render_reports_the_domination_verdict(payload):
    text = adaptive_tradeoff.SPEC.render(payload)
    assert "dominating: " + DOMINATING_KEY in text
    assert "cost = messages + resubscriptions" in text
