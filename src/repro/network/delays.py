"""Link-delay models.

The paper draws node-to-node link delays from a heavy-tailed Pareto
distribution with density ``alpha * k^alpha / x^(alpha+1)``, where
``alpha = mean / (mean - min)`` and ``k`` (the scale) is the minimum delay
a link can have.  With the paper's parameters -- mean 15 ms, minimum
2 ms -- the resulting networks have average nominal node-to-node delays
around 20-30 ms (Section 6.1).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["ParetoDelayModel", "ConstantDelayModel"]


class ParetoDelayModel:
    """Heavy-tailed Pareto link delays, parameterised as in the paper.

    Args:
        mean_ms: Mean link delay in milliseconds (paper: 15 ms).
        min_ms: Minimum link delay in milliseconds (paper: 2 ms).
        cap_ms: Optional truncation to keep pathological tail draws from
            dominating a small sample; ``None`` leaves the tail unbounded.
    """

    def __init__(
        self,
        mean_ms: float = 15.0,
        min_ms: float = 2.0,
        cap_ms: float | None = 500.0,
    ) -> None:
        if min_ms <= 0:
            raise ConfigurationError(f"min_ms must be positive, got {min_ms!r}")
        if mean_ms <= min_ms:
            raise ConfigurationError(
                f"mean_ms ({mean_ms!r}) must exceed min_ms ({min_ms!r}) "
                "for the Pareto mean to exist"
            )
        if cap_ms is not None and cap_ms <= min_ms:
            raise ConfigurationError("cap_ms must exceed min_ms")
        self.mean_ms = mean_ms
        self.min_ms = min_ms
        self.cap_ms = cap_ms
        # alpha = mean / (mean - min) gives E[X] = alpha*k/(alpha-1) = mean.
        self.alpha = mean_ms / (mean_ms - min_ms)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` link delays in milliseconds."""
        if size < 0:
            raise ConfigurationError(f"size must be non-negative, got {size!r}")
        # Inverse-CDF sampling: X = k / U^(1/alpha).
        u = rng.random(size)
        delays = self.min_ms / np.power(u, 1.0 / self.alpha)
        if self.cap_ms is not None:
            np.minimum(delays, self.cap_ms, out=delays)
        return delays


class ConstantDelayModel:
    """Degenerate delay model: every link has the same delay.

    Useful in tests and in the zero-delay fidelity-theorem checks.
    """

    def __init__(self, delay_ms: float) -> None:
        if delay_ms < 0:
            raise ConfigurationError(f"delay_ms must be non-negative, got {delay_ms!r}")
        self.delay_ms = delay_ms

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if size < 0:
            raise ConfigurationError(f"size must be non-negative, got {size!r}")
        return np.full(size, self.delay_ms, dtype=float)
