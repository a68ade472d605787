"""Property example counts that follow the loaded Hypothesis profile.

A ``max_examples`` pinned on a test wins over any profile, so a bare
``@settings(max_examples=200)`` draws 200 examples under every profile.
Each property here pins ``max_examples=examples(N)`` instead: ``N``
under ``tier1`` (Hypothesis's default ``max_examples``, 100, is the
scale ``N`` is written at), and ``N`` times the loaded profile's
``max_examples`` / 100 under any other -- five times as many under
``randomized`` (profiles in ``tests/conftest.py``).  Test modules are
imported after the profile named on the command line is loaded.
"""

from __future__ import annotations

from hypothesis import settings


def examples(count: int) -> int:
    """``count`` scaled to the loaded profile's ``max_examples``."""
    return max(1, count * settings.default.max_examples // 100)
