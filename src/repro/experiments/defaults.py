"""Shared paper constants: the grids every experiment sweeps.

The paper's ~15 figures and tables draw from one small family of
parameter grids -- the seven coherency mixes of Figure 3, the
communication/computation delay axes of Figures 5-7, LeLA's P% band,
Eq. (2)'s interest fraction, the pull TTRs and the push/pull threshold
boundary.  This module is their single home; the grid declarations in
:mod:`repro.experiments.figures` and the extension experiments import
them from here.
"""

from __future__ import annotations

__all__ = [
    "DEFAULT_T_VALUES",
    "DEFAULT_COMM_DELAYS",
    "DEFAULT_COMP_DELAYS",
    "DEFAULT_P_VALUES",
    "DEFAULT_F_VALUES",
    "DEFAULT_TTRS",
    "DEFAULT_THRESHOLDS",
    "default_degrees",
    "default_intensities",
]

#: The paper's seven coherency-stringency mixes (Figures 3 and 5-7).
DEFAULT_T_VALUES: tuple[float, ...] = (100.0, 90.0, 80.0, 70.0, 50.0, 20.0, 0.0)

#: Figure 5 / 7(b) x-axis: average node-to-node delay in milliseconds.
DEFAULT_COMM_DELAYS: tuple[float, ...] = (0.0, 25.0, 50.0, 75.0, 100.0, 125.0)

#: Figure 6 / 7(c) x-axis: per-dependent computational delay in ms.
DEFAULT_COMP_DELAYS: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)

#: Figure 9: LeLA's P% admission-band values.
DEFAULT_P_VALUES: tuple[float, ...] = (1.0, 5.0, 10.0, 25.0)

#: Ablation sweep around the paper's Eq. (2) footnote values (f=50, 100).
DEFAULT_F_VALUES: tuple[float, ...] = (10.0, 25.0, 50.0, 75.0, 100.0, 200.0)

#: Pull-baseline fixed TTRs to sweep, in seconds.
DEFAULT_TTRS: tuple[float, ...] = (2.0, 10.0, 30.0)

#: Hybrid push/pull threshold sweep across the paper's tolerance bands.
DEFAULT_THRESHOLDS: tuple[float, ...] = (0.005, 0.05, 0.1, 0.5, 1.0)


def default_degrees(n_repositories: int) -> list[int]:
    """A log-ish degree-of-cooperation sweep from a chain to full fan-out."""
    candidates = [1, 2, 3, 5, 8, 12, 20, 35, 60, 100]
    degrees = [d for d in candidates if d < n_repositories]
    degrees.append(n_repositories)
    return degrees


def default_intensities(n_repositories: int) -> list[int]:
    """Churn intensities (events per kind) that fit the repository pool."""
    cap = max(1, n_repositories // 4)
    return [k for k in (0, 1, 2, 4, 8) if k <= cap]
