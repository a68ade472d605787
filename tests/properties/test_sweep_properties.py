"""Property-based tests of the parallel-sweep determinism guarantee.

For any hypothesis-chosen set of sweep points, the parallel path must be
*bit-identical* to the serial path -- same losses, same counters, same
per-pair extras -- independent of worker count and submission order.
Dataclass equality on :class:`SimulationResult` compares every nested
field with ``==`` on exact floats, so these assertions are bitwise.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from example_counts import examples
from repro.engine.config import SimulationConfig
from repro.engine.sweep import run_sweep

_BASE = dict(
    n_repositories=6,
    n_routers=15,
    n_items=2,
    trace_samples=100,
)

_point = st.builds(
    lambda seed, degree, t, policy: SimulationConfig(
        seed=seed,
        offered_degree=degree,
        t_percent=t,
        policy=policy,
        **_BASE,
    ),
    seed=st.integers(min_value=0, max_value=2**10),
    degree=st.integers(min_value=1, max_value=6),
    t=st.sampled_from([0.0, 50.0, 100.0]),
    policy=st.sampled_from(["distributed", "centralized"]),
)


@given(configs=st.lists(_point, min_size=1, max_size=5), jobs=st.sampled_from([2, 4]))
@settings(max_examples=examples(8), deadline=None)
def test_parallel_sweep_is_bit_identical_to_serial(configs, jobs):
    serial = run_sweep(configs, jobs=1)
    parallel = run_sweep(configs, jobs=jobs)
    assert parallel == serial


@given(
    configs=st.lists(_point, min_size=2, max_size=5, unique=True),
    order=st.randoms(use_true_random=False),
)
@settings(max_examples=examples(8), deadline=None)
def test_sweep_results_independent_of_submission_order(configs, order):
    """Shuffling the points reorders the output list but never changes
    any individual config's result."""
    baseline = dict(zip(configs, run_sweep(configs, jobs=2)))
    shuffled = list(configs)
    order.shuffle(shuffled)
    reshuffled = dict(zip(shuffled, run_sweep(shuffled, jobs=2)))
    assert reshuffled == baseline
