"""Unit tests for the Pareto link-delay model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.network.delays import ConstantDelayModel, ParetoDelayModel


def test_samples_respect_minimum():
    model = ParetoDelayModel(mean_ms=15.0, min_ms=2.0)
    delays = model.sample(np.random.default_rng(0), 10_000)
    assert (delays >= 2.0).all()


def test_samples_respect_cap():
    model = ParetoDelayModel(mean_ms=15.0, min_ms=2.0, cap_ms=100.0)
    delays = model.sample(np.random.default_rng(0), 10_000)
    assert (delays <= 100.0).all()


def test_mean_close_to_configured():
    # The cap trims the heavy tail, so the sample mean lands slightly
    # below the nominal 15 ms; it must sit in a sane band.
    model = ParetoDelayModel(mean_ms=15.0, min_ms=2.0)
    delays = model.sample(np.random.default_rng(1), 200_000)
    assert 7.0 < delays.mean() < 18.0


def test_alpha_formula():
    model = ParetoDelayModel(mean_ms=15.0, min_ms=2.0)
    assert model.alpha == pytest.approx(15.0 / 13.0)


def test_uncapped_model_allows_tail():
    model = ParetoDelayModel(mean_ms=15.0, min_ms=2.0, cap_ms=None)
    delays = model.sample(np.random.default_rng(2), 100_000)
    assert delays.max() > 100.0  # heavy tail reaches far out


def test_invalid_params_rejected():
    with pytest.raises(ConfigurationError):
        ParetoDelayModel(mean_ms=1.0, min_ms=2.0)
    with pytest.raises(ConfigurationError):
        ParetoDelayModel(mean_ms=15.0, min_ms=0.0)
    with pytest.raises(ConfigurationError):
        ParetoDelayModel(mean_ms=15.0, min_ms=2.0, cap_ms=1.0)


def test_negative_size_rejected():
    model = ParetoDelayModel()
    with pytest.raises(ConfigurationError):
        model.sample(np.random.default_rng(0), -1)


def test_sampling_is_deterministic_given_rng():
    model = ParetoDelayModel()
    a = model.sample(np.random.default_rng(3), 100)
    b = model.sample(np.random.default_rng(3), 100)
    assert np.array_equal(a, b)


def test_constant_model():
    model = ConstantDelayModel(5.0)
    delays = model.sample(np.random.default_rng(0), 10)
    assert (delays == 5.0).all()


def test_constant_model_rejects_negative():
    with pytest.raises(ConfigurationError):
        ConstantDelayModel(-1.0)
