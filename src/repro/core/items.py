"""Data items and coherency-requirement mixes.

A coherency requirement ``c`` is the maximum permissible deviation of a
repository's copy from the source value (Section 1.1); here always in
value units (dollars), the harder of the two variants the paper considers.

The experiments parameterise stringency with ``T``: ``T%`` of a
repository's items get *stringent* tolerances drawn from $0.01-$0.099 and
the rest get *lax* tolerances from $0.1-$0.999 (Section 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["DataItem", "CoherencyMix"]


@dataclass(frozen=True)
class DataItem:
    """One dynamic data item (e.g. a stock ticker).

    Attributes:
        item_id: Dense integer id used throughout the engine.
        name: Human-readable identifier.
    """

    item_id: int
    name: str

    def __post_init__(self) -> None:
        if self.item_id < 0:
            raise ConfigurationError(f"item_id must be >= 0, got {self.item_id!r}")


@dataclass(frozen=True)
class CoherencyMix:
    """The paper's T% stringent / (100-T)% lax tolerance mix.

    Attributes:
        t_percent: Percentage of items per repository given a stringent
            tolerance (the paper's ``T``; 100 means all stringent).
        stringent_range: (low, high) dollars for stringent tolerances.
        lax_range: (low, high) dollars for lax tolerances.
    """

    t_percent: float
    stringent_range: tuple[float, float] = (0.01, 0.099)
    lax_range: tuple[float, float] = (0.1, 0.999)

    def __post_init__(self) -> None:
        if not 0.0 <= self.t_percent <= 100.0:
            raise ConfigurationError(
                f"t_percent must be in [0, 100], got {self.t_percent!r}"
            )
        for label, (lo, hi) in (
            ("stringent_range", self.stringent_range),
            ("lax_range", self.lax_range),
        ):
            if lo <= 0 or hi <= lo:
                raise ConfigurationError(f"invalid {label}: ({lo!r}, {hi!r})")

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` coherency tolerances following the mix.

        Exactly ``round(T% * n)`` of the tolerances are stringent; which
        positions they land on is randomised.
        """
        if n < 0:
            raise ConfigurationError(f"n must be non-negative, got {n!r}")
        if n == 0:
            return np.empty(0, dtype=float)
        n_stringent = int(round(self.t_percent / 100.0 * n))
        tolerances = np.empty(n, dtype=float)
        tolerances[:n_stringent] = rng.uniform(*self.stringent_range, size=n_stringent)
        tolerances[n_stringent:] = rng.uniform(*self.lax_range, size=n - n_stringent)
        rng.shuffle(tolerances)
        return tolerances
