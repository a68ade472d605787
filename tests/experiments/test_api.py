"""Unit tests for the declarative experiment registry and runner."""

import dataclasses

import pytest

from repro.__main__ import main as cli_main
from repro.engine.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.experiments import api
from repro.experiments.defaults import DEFAULT_T_VALUES
from repro.experiments.runner import ExperimentResult

TINY = dict(n_items=6, trace_samples=300)


def test_registry_knows_every_experiment_in_paper_order():
    assert api.available_experiments() == [
        "table1",
        "figure3",
        "figure5",
        "figure6",
        "figure7",
        "figure8",
        "figure9",
        "figure10",
        "figure11",
        "scalability",
        "sensitivity",
        "pull_baseline",
        "hybrid_tradeoff",
        "churn_resilience",
        "failure_resilience",
        "workload_sensitivity",
        "adaptive_tradeoff",
        "live_crosscheck",
    ]


def test_every_spec_declares_description_and_callables():
    for name in api.available_experiments():
        spec = api.get_experiment(name)
        assert spec.name == name
        assert spec.description
        assert callable(spec.plan) and callable(spec.collect)
        assert callable(spec.render)


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigurationError):
        api.get_experiment("figure99")


def test_duplicate_registration_rejected():
    spec = api.get_experiment("figure3")
    clone = dataclasses.replace(spec)
    with pytest.raises(ConfigurationError):
        api.register(clone)


def test_resolve_params_fills_defaults_and_normalises():
    spec = api.get_experiment("figure3")
    params = spec.resolve_params({"degrees": [1, 4]})
    assert params["degrees"] == (1, 4)  # list normalised to tuple
    assert params["policy"] == "centralized"  # schema default
    assert params["t_values"] == DEFAULT_T_VALUES


def test_resolve_params_rejects_unknown_names():
    with pytest.raises(ConfigurationError):
        api.get_experiment("figure3").resolve_params({"degreez": (1,)})


def test_param_spec_coerces_cli_text():
    spec = api.get_experiment("figure3")
    assert spec.param("t_values").coerce("100,50,0") == (100.0, 50.0, 0.0)
    assert spec.param("degrees").coerce("1,4,20") == (1, 4, 20)
    assert spec.param("policy").coerce("distributed") == "distributed"
    with pytest.raises(ConfigurationError):
        spec.param("t_values").coerce("hot")
    with pytest.raises(ConfigurationError):
        spec.param("missing")


@pytest.mark.parametrize("name", ["t_values", "degrees"])
def test_param_spec_rejects_empty_lists(name):
    """An empty sweep axis used to reach plan/collect: ``degrees=`` died
    with an IndexError in figure8, ``t_values=`` rendered no curves."""
    param = api.get_experiment("figure3").param(name)
    with pytest.raises(ConfigurationError, match="at least one value"):
        param.coerce("")
    with pytest.raises(ConfigurationError, match="at least one value"):
        param.normalize([])
    with pytest.raises(ConfigurationError, match="at least one value"):
        api.run_experiment("figure3", preset="tiny", params={name: []})


def test_cli_rejects_empty_list_param():
    with pytest.raises(SystemExit, match="at least one value"):
        cli_main(["experiments", "run", "figure8", "--preset", "tiny",
                  "--no-cache", "--param", "figure8.degrees="])


def test_param_spec_rejects_unknown_kind():
    with pytest.raises(ConfigurationError):
        api.ParamSpec("x", "complex")


def test_bool_params_parse_false_strings():
    spec = api.get_experiment("figure11")
    assert spec.resolve_params(
        {"controlled_cooperation": "false"}
    )["controlled_cooperation"] is False
    assert spec.resolve_params(
        {"controlled_cooperation": True}
    )["controlled_cooperation"] is True
    with pytest.raises(ConfigurationError):
        spec.resolve_params({"controlled_cooperation": "maybe"})
    with pytest.raises(ConfigurationError):
        spec.resolve_params({"controlled_cooperation": 3.5})


def test_plans_are_frozen_config_grids():
    for name in api.available_experiments():
        spec = api.get_experiment(name)
        ctx = api.ExperimentContext(
            preset="tiny", params=spec.resolve_params(), overrides=TINY
        )
        plan = spec.plan(ctx)
        assert isinstance(plan, tuple)
        for config in plan:
            assert isinstance(config, SimulationConfig)
        # Frozen configs are hashable: the dedup/cache plane keys on them.
        assert len(set(plan)) <= len(plan)


def test_execute_plan_deduplicates_within_a_plan():
    config = SimulationConfig(
        n_repositories=20, n_routers=60, **TINY
    )
    stats = api.ExecutionStats()
    results = api.execute_plan([config, config], stats=stats)
    assert stats.planned == 2
    assert stats.distinct == 1
    assert results[0] is results[1]


def test_run_experiments_shares_points_across_experiments(tmp_path):
    """figure3 at T=0 with the distributed policy plans the exact configs
    of figure8's filtered arm: the union must simulate them once."""
    degrees = (1, 4)
    report = api.run_experiments(
        ["figure3", "figure8"],
        preset="tiny",
        params_by_name={
            "figure3": dict(t_values=(0.0,), degrees=degrees,
                            policy="distributed"),
            "figure8": dict(degrees=degrees),
        },
        overrides=TINY,
        artifacts_dir=tmp_path,
    )
    assert report.stats.planned == len(degrees) * 3  # fig3 row + 2 fig8 rows
    assert report.stats.deduplicated == len(degrees)
    # The shared points produce identical curves on both sides.
    fig3 = report.payloads["figure3"]
    fig8 = report.payloads["figure8"]
    assert fig3.series_by_label("T=0").ys == fig8.series_by_label("Filtered").ys
    # Schema-versioned artifacts are persisted per experiment.
    for name in ("figure3", "figure8"):
        artifact = report.artifacts[name]
        assert artifact.exists()
        content = artifact.read_text()
        assert '"schema": "repro.experiment-artifact"' in content
        assert '"schema_version"' in content


def test_to_jsonable_handles_payload_shapes():
    result = ExperimentResult(
        name="X", xlabel="x", ylabel="y", xs=[1.0],
        notes={1: (2, 3), "nested": {"b": True}},
    )
    encoded = api.to_jsonable(result)
    assert encoded["__dataclass__"] == "ExperimentResult"
    assert encoded["notes"] == {"1": [2, 3], "nested": {"b": True}}


def test_render_matches_main_output(capsys):
    """The CLI prints exactly what the spec renders from the payload."""
    payload = api.run_experiment(
        "figure8", preset="tiny", params=dict(degrees=[1, 4])
    )
    text = api.get_experiment("figure8").render(payload)
    cli_main(["experiments", "run", "figure8", "--preset", "tiny",
              "--no-cache", "--param", "figure8.degrees=1,4"])
    out = capsys.readouterr().out
    assert text in out
    assert "Figure 8" in text
