"""Shared result shapes and ASCII reporting for all experiments."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.config import SCALE_PRESETS, SimulationConfig
from repro.errors import ConfigurationError

__all__ = [
    "Series",
    "ExperimentResult",
    "preset_config",
    "format_result",
]


@dataclass
class Series:
    """One plotted curve: a label and y-values aligned to the xs."""

    label: str
    ys: list[float]


@dataclass
class ExperimentResult:
    """All curves of one figure (or the rows of one table)."""

    name: str
    xlabel: str
    ylabel: str
    xs: list[float]
    series: list[Series] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def series_by_label(self, label: str) -> Series:
        """Find a curve by its label.

        Raises:
            KeyError: if no curve carries the label.
        """
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"no series labelled {label!r} in {self.name}")


def preset_config(preset: str, **overrides) -> SimulationConfig:
    """Resolve a scale preset and apply overrides.

    Raises:
        ConfigurationError: on an unknown preset name.
    """
    try:
        base = SCALE_PRESETS[preset]
    except KeyError:
        raise ConfigurationError(
            f"unknown preset {preset!r}; choose from {sorted(SCALE_PRESETS)}"
        ) from None
    return base.with_(**overrides) if overrides else base


def report(result: ExperimentResult, chart: bool = True) -> str:
    """Format a result as a table plus (when sensible) an ASCII chart."""
    from repro.experiments.ascii_plot import render

    text = format_result(result)
    if chart and result.series and len(result.xs) > 1 and len(result.series) <= 8:
        text += "\n\n" + render(result)
    return text


def format_result(result: ExperimentResult, precision: int = 2) -> str:
    """Render an :class:`ExperimentResult` as an aligned ASCII table."""
    width = max(12, *(len(s.label) + 2 for s in result.series)) if result.series else 12
    xw = max(len(result.xlabel) + 2, 14)
    lines = [f"== {result.name} ==", f"y: {result.ylabel}"]
    header = f"{result.xlabel:<{xw}}" + "".join(
        f"{s.label:>{width}}" for s in result.series
    )
    lines.append(header)
    lines.append("-" * len(header))
    for i, x in enumerate(result.xs):
        row = f"{x:<{xw}.6g}"
        for s in result.series:
            row += f"{s.ys[i]:>{width}.{precision}f}"
        lines.append(row)
    for key, value in result.notes.items():
        lines.append(f"note: {key} = {value}")
    return "\n".join(lines)
