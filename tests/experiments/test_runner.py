"""Unit tests for the shared experiment machinery."""

import pytest

from repro.engine.config import SCALE_PRESETS
from repro.errors import ConfigurationError
from repro.experiments.runner import (
    ExperimentResult,
    Series,
    format_result,
    preset_config,
)


def test_preset_config_resolves_and_overrides():
    config = preset_config("tiny", t_percent=33.0)
    assert config.n_repositories == SCALE_PRESETS["tiny"].n_repositories
    assert config.t_percent == 33.0


def test_preset_config_unknown_rejected():
    with pytest.raises(ConfigurationError):
        preset_config("huge")


def test_series_lookup():
    result = ExperimentResult(
        name="X", xlabel="x", ylabel="y", xs=[1.0],
        series=[Series(label="A", ys=[0.5])],
    )
    assert result.series_by_label("A").ys == [0.5]
    with pytest.raises(KeyError):
        result.series_by_label("B")


def test_format_result_renders_all_series():
    result = ExperimentResult(
        name="Demo", xlabel="x", ylabel="loss", xs=[1.0, 2.0],
        series=[Series(label="T=0", ys=[0.1, 0.2]), Series(label="T=100", ys=[1.0, 2.0])],
        notes={"k": "v"},
    )
    text = format_result(result)
    assert "Demo" in text
    assert "T=0" in text and "T=100" in text
    assert "note: k = v" in text
    assert len(text.splitlines()) == 7
