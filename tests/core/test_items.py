"""Unit tests for data items and the coherency mix."""

import numpy as np
import pytest

from repro.core.items import CoherencyMix, DataItem
from repro.errors import ConfigurationError


def test_data_item_fields():
    item = DataItem(item_id=3, name="MSFT")
    assert item.item_id == 3
    assert item.name == "MSFT"


def test_data_item_negative_id_rejected():
    with pytest.raises(ConfigurationError):
        DataItem(item_id=-1, name="X")


def test_mix_all_stringent():
    mix = CoherencyMix(t_percent=100.0)
    cs = mix.draw(200, np.random.default_rng(0))
    assert (cs >= 0.01).all() and (cs <= 0.099).all()


def test_mix_all_lax():
    mix = CoherencyMix(t_percent=0.0)
    cs = mix.draw(200, np.random.default_rng(0))
    assert (cs >= 0.1).all() and (cs <= 0.999).all()


def test_mix_split_counts_exact():
    mix = CoherencyMix(t_percent=80.0)
    cs = mix.draw(100, np.random.default_rng(1))
    stringent = np.count_nonzero(cs <= 0.099)
    assert stringent == 80


def test_mix_rounding_of_split():
    mix = CoherencyMix(t_percent=50.0)
    cs = mix.draw(5, np.random.default_rng(2))
    stringent = np.count_nonzero(cs <= 0.099)
    assert stringent in (2, 3)  # round(2.5) is banker's-rounded


def test_mix_positions_are_shuffled():
    mix = CoherencyMix(t_percent=50.0)
    cs = mix.draw(100, np.random.default_rng(3))
    # If unshuffled, the first 50 would all be stringent.
    first_half_stringent = np.count_nonzero(cs[:50] <= 0.099)
    assert 5 < first_half_stringent < 45


def test_mix_zero_items():
    mix = CoherencyMix(t_percent=50.0)
    assert mix.draw(0, np.random.default_rng(0)).size == 0


def test_mix_negative_count_rejected():
    mix = CoherencyMix(t_percent=50.0)
    with pytest.raises(ConfigurationError):
        mix.draw(-1, np.random.default_rng(0))


@pytest.mark.parametrize("t", [-1.0, 101.0])
def test_invalid_t_rejected(t):
    with pytest.raises(ConfigurationError):
        CoherencyMix(t_percent=t)


def test_invalid_ranges_rejected():
    with pytest.raises(ConfigurationError):
        CoherencyMix(t_percent=50.0, stringent_range=(0.0, 0.1))
    with pytest.raises(ConfigurationError):
        CoherencyMix(t_percent=50.0, lax_range=(0.5, 0.2))


def test_draw_deterministic_given_rng():
    mix = CoherencyMix(t_percent=30.0)
    a = mix.draw(50, np.random.default_rng(4))
    b = mix.draw(50, np.random.default_rng(4))
    assert np.array_equal(a, b)
