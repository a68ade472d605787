"""Smoke tests: every shipped example must run and print its story."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: Per example (file stem), what its output must contain: each entry is
#: a tuple of alternatives, at least one of which must appear.
EXPECTED = {
    "adaptive_cooperation": [("Eq.2 degree", "Eq. (2)")],
    "quickstart": [("loss of fidelity",), ("U-curve",)],
    "sensor_network": [("forecast",), ("dashboard",), ("loss of fidelity",)],
    "stock_ticker_dissemination": [("MSFT",), ("distributed",), ("flooding",)],
}


def test_every_example_has_expectations():
    assert sorted(EXPECTED) == [script.stem for script in sorted(EXAMPLES.glob("*.py"))]


@pytest.mark.slow
@pytest.mark.parametrize(
    "script", sorted(EXAMPLES.glob("*.py")), ids=lambda script: script.stem
)
def test_example_runs_and_prints_its_story(script, capsys):
    saved_argv = sys.argv
    sys.argv = [str(script)]
    try:
        runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.argv = saved_argv
    out = capsys.readouterr().out
    for alternatives in EXPECTED[script.stem]:
        assert any(text in out for text in alternatives), (script.stem, alternatives)
