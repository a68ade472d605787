"""Experiment harness: a declarative registry of the paper's artefacts.

Every table/figure (and every system extension) is an
:class:`~repro.experiments.api.ExperimentSpec` registered in
:mod:`repro.experiments.api`: a typed parameter schema, a ``plan()``
yielding its frozen :class:`~repro.engine.config.SimulationConfig` grid
and a ``collect()`` reducing raw results into the experiment's payload.
The unified runner executes the union of all requested plans through one
deduplicated sweep fan-out with a content-addressed result cache
(:mod:`repro.experiments.cache`), so shared points are simulated once
and warm reruns skip simulation entirely.

The paper's grid figures (3, 5-10) are declared as data in
:mod:`repro.experiments.figures`; every other experiment lives in the
module of its name.  :func:`repro.experiments.api.run_experiment` is the
one programmatic entry point; from the command line::

    python -m repro experiments list
    python -m repro experiments run figure3 figure8 --preset tiny --jobs 4
    python -m repro.experiments.run_all --preset small
"""

from repro.experiments.runner import (
    ExperimentResult,
    Series,
    format_result,
    report,
)

__all__ = ["ExperimentResult", "Series", "format_result", "report"]
