"""Property-based tests for failure-schedule execution.

One contract above all: **wire conservation**.  Whatever valid
:class:`~repro.engine.failures.FailureSchedule` is injected -- any mix
of crash/recover pairs, open crash windows, link partitions, targets
that are or are not real service edges -- every message the economy
charges is either delivered or counted as a drop, the score stays a
percentage, and the scalar and vectorized kernels agree bit-for-bit.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from example_counts import examples
from repro.engine.config import SCALE_PRESETS
from repro.engine.failures import FailureEvent, FailureSchedule
from repro.engine.simulation import run_simulation

#: Small grid so each drawn example simulates in tens of milliseconds.
BASE = SCALE_PRESETS["tiny"].with_(
    n_repositories=8, n_routers=24, n_items=2, trace_samples=120
)

_SPAN = float(BASE.trace_samples - 1)

_times = st.floats(
    min_value=0.0, max_value=_SPAN, allow_nan=False, allow_infinity=False
)


@st.composite
def _schedules(draw):
    events: list[FailureEvent] = []
    # Crash windows: per sampled repository, one open or closed window.
    repos = draw(st.lists(
        st.integers(min_value=1, max_value=BASE.n_repositories),
        unique=True, max_size=3,
    ))
    for repo in repos:
        times = sorted(draw(st.lists(_times, min_size=1, max_size=2, unique=True)))
        events.append(FailureEvent.crash(times[0], repo))
        if len(times) == 2:
            events.append(FailureEvent.recover(times[1], repo))
    # Partition windows: directed pairs, not necessarily real edges --
    # the kernels must tolerate partitions of links nobody uses.
    links = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=BASE.n_repositories),
            st.integers(min_value=0, max_value=BASE.n_repositories),
        ).filter(lambda link: link[0] != link[1]),
        unique=True, max_size=2,
    ))
    for link in links:
        times = sorted(draw(st.lists(_times, min_size=1, max_size=2, unique=True)))
        events.append(FailureEvent.link_down(times[0], *link))
        if len(times) == 2:
            events.append(FailureEvent.link_up(times[1], *link))
    return FailureSchedule(tuple(events))


@settings(max_examples=examples(12), deadline=None)
@given(schedule=_schedules(), loss=st.sampled_from([0.0, 0.05]))
def test_conservation_and_kernel_identity_under_any_schedule(schedule, loss):
    config = BASE.with_(
        failures=schedule, message_loss_probability=loss
    )
    scalar = run_simulation(config.with_(kernel="scalar"))
    counters = scalar.counters
    assert counters.deliveries + counters.drops == counters.messages
    assert counters.resync_messages <= counters.resync_checks
    assert 0.0 <= scalar.loss_of_fidelity <= 100.0
    assert run_simulation(config.with_(kernel="vectorized")) == scalar
