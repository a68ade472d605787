"""Unit tests for the shared coherency-filter helpers."""

import pytest

from repro.core.dissemination.filtering import SourceDecision
from repro.core.dissemination.filtering import (
    StaircaseTagger,
    EdgeFilter,
    SourceTagger,
    forward_centralized,
    forward_distributed,
    forward_eq3_only,
    forward_flooding,
    quantise_tolerance,
    tag_for_update,
)
from repro.errors import ConfigurationError, DisseminationError


def test_forward_distributed_eq3_and_eq7():
    # Eq. (3): plain violation.
    assert forward_distributed(1.6, 1.0, c_serve=0.5, parent_receive_c=0.0)
    assert not forward_distributed(1.4, 1.0, c_serve=0.5, parent_receive_c=0.0)
    # Eq. (7): slack shrunk below the parent's receive coherency.
    assert forward_distributed(1.4, 1.0, c_serve=0.5, parent_receive_c=0.3)
    assert not forward_distributed(1.1, 1.0, c_serve=0.5, parent_receive_c=0.3)


def test_forward_eq3_only_ignores_parent_coherency():
    assert not forward_eq3_only(1.4, 1.0, c_serve=0.5)
    assert forward_eq3_only(1.6, 1.0, c_serve=0.5)


def test_forward_flooding_skips_repeats_only():
    assert forward_flooding(1.0, 2.0)
    assert not forward_flooding(2.0, 2.0)


def test_forward_centralized_prunes_by_tag():
    # The value and last-sent operands are ignored: the tag decides.
    assert forward_centralized(1.0, 1.0, 0.3, 0.0, tag=0.3)
    assert forward_centralized(1.0, 1.0, 0.1, 0.0, tag=0.3)
    assert not forward_centralized(9.0, 1.0, 0.5, 0.0, tag=0.3)


def test_tag_for_update_picks_max_violated():
    last = {0.1: 1.0, 0.3: 1.0, 0.5: 1.0}
    assert tag_for_update(1.35, [0.1, 0.3, 0.5], last) == 0.3
    assert tag_for_update(1.05, [0.1, 0.3, 0.5], last) is None
    assert tag_for_update(2.0, [0.1, 0.3, 0.5], last) == 0.5


def test_quantise_collapses_float_dust():
    assert quantise_tolerance(0.1 + 0.2) == quantise_tolerance(0.3)


def test_edge_filter_rejects_unknown_policy():
    with pytest.raises(ConfigurationError):
        EdgeFilter("gossip", 0.5, 1.0)


def test_edge_filter_updates_state_only_on_forward():
    filt = EdgeFilter("distributed", 0.5, 1.0)
    assert not filt.decide(1.3)
    assert filt.last_sent == 1.0  # suppressed: state untouched
    assert filt.decide(1.6)
    assert filt.last_sent == 1.6  # forwarded: state moved


def test_edge_filter_centralized_requires_tag():
    filt = EdgeFilter("centralized", 0.5, 1.0)
    with pytest.raises(DisseminationError):
        filt.decide(2.0)
    assert filt.decide(2.0, tag=0.5)


def test_source_tagger_tracks_unique_tolerances():
    tagger = SourceTagger()
    tagger.add_tolerance(0, 0.3, 1.0)
    tagger.add_tolerance(0, 0.1, 1.0)
    tagger.add_tolerance(0, 0.3, 1.0)  # a second edge at the same tolerance
    assert tagger.unique_tolerances(0) == [0.1, 0.3]
    tagger.remove_tolerance(0, 0.1)
    assert tagger.unique_tolerances(0) == [0.3]
    tagger.remove_tolerance(0, 0.1)  # unknown by now: ignored
    tagger.remove_tolerance(0, 0.3)
    assert tagger.unique_tolerances(0) == [0.3]  # one edge still serves at it
    tagger.remove_tolerance(0, 0.3)
    assert tagger.unique_tolerances(0) == []


def test_array_tagger_counts_edges_like_the_scalar_tagger():
    scalar, array = SourceTagger(), StaircaseTagger()
    edges = [0.3, 0.1, 0.3 + 1e-12, 0.5]
    for c in edges:
        scalar.add_tolerance(0, c, 1.0)
    array.add_item(0, edges, 1.0)
    assert array.unique_tolerances(0) == scalar.unique_tolerances(0) == [0.1, 0.3, 0.5]
    for tagger in (scalar, array):
        tagger.examine(0, 1.35)  # marks 0.1 and 0.3 as sent at 1.35
        tagger.remove_tolerance(0, 0.3)  # one of two edges: entry and state stay
        tagger.add_tolerance(0, 0.2, 9.0)
        tagger.add_tolerance(0, 0.3, 9.0)  # existing entry keeps its last-sent
    assert array.unique_tolerances(0) == scalar.unique_tolerances(0) == [0.1, 0.2, 0.3, 0.5]
    for value in (1.6, 1.7, 9.1, 9.4):
        assert array.examine(0, value) == scalar.examine(0, value)
    for tagger in (scalar, array):
        tagger.remove_tolerance(0, 0.3)
        tagger.remove_tolerance(0, 0.3)
    assert array.unique_tolerances(0) == scalar.unique_tolerances(0) == [0.1, 0.2, 0.5]


def test_staircase_tagger_rejects_sub_quantum_tolerances():
    """Quantised, 1e-12 is 0.0 -- a tolerance every change violates."""
    tagger = StaircaseTagger()
    with pytest.raises(ConfigurationError, match="quantisation quantum"):
        tagger.add_tolerance(0, 1e-12, 1.0)
    with pytest.raises(ConfigurationError, match="quantisation quantum"):
        tagger.add_item(0, [0.3, 1e-12], 1.0)
    assert tagger.unique_tolerances(0) == []


def test_a_new_tolerance_splits_the_run_it_lands_in():
    tagger = StaircaseTagger()
    tagger.add_item(0, [0.1, 0.3, 0.5], 1.0)

    def runs():
        stairs = tagger._state[0][0]
        return stairs.ends, stairs.vals

    assert runs() == ([3], [1.0])
    tagger.add_tolerance(0, 0.2, 9.0)
    assert runs() == ([1, 2, 4], [1.0, 9.0, 1.0])
    # 0.2 (holding 9.0) and 0.1, 0.3 (holding 1.0) are violated, 0.5 is
    # not: everything up to the tag collapses into one run.
    assert tagger.examine(0, 1.35) == SourceDecision(True, tag=0.3, checks=4)
    assert runs() == ([3, 4], [1.35, 1.0])
    # Nothing violated: the one decision built when the tolerance count
    # last moved.
    quiet = tagger.examine(0, 1.36)
    assert quiet == SourceDecision(False, tag=None, checks=4)
    assert tagger.examine(0, 1.34) is quiet
    tagger.remove_tolerance(0, 0.5)
    assert runs() == ([3], [1.35])
    assert tagger.examine(0, 1.36) == SourceDecision(False, tag=None, checks=3)


def test_source_tagger_examination_marks_covered_tolerances():
    tagger = SourceTagger()
    for c in (0.1, 0.3, 0.5):
        tagger.add_tolerance(0, c, 1.0)
    decision = tagger.examine(0, 1.35)
    assert decision.disseminate and decision.tag == 0.3
    assert decision.checks == 3
    # 1.35 was recorded for 0.1 and 0.3 but not 0.5: a follow-up 1.3
    # violates nothing.
    follow_up = tagger.examine(0, 1.3)
    assert not follow_up.disseminate and follow_up.checks == 3


def test_source_tagger_without_tolerances_drops_updates():
    decision = SourceTagger().examine(7, 123.0)
    assert not decision.disseminate and decision.checks == 0


# ---------------------------------------------------------------------------
# Float edge cases: NaN would make the policies silently diverge.
# ---------------------------------------------------------------------------


def test_nan_updates_would_split_the_policies():
    """The divergence that motivates ingestion-time rejection: flooding's
    ``!=`` test forwards a NaN on *every* update (NaN != anything),
    while Eq. (3)/Eq. (7) comparisons never fire on NaN -- so the same
    NaN-bearing trace would flood one policy and starve the others."""
    nan = float("nan")
    assert forward_flooding(nan, 1.0)
    assert forward_flooding(nan, nan)  # even vs itself: floods forever
    assert not forward_eq3_only(nan, 1.0, c_serve=0.5)
    assert not forward_distributed(nan, 1.0, c_serve=0.5, parent_receive_c=0.3)


def test_all_filtered_policies_see_only_finite_values():
    """Cross-policy regression: both trace-ingestion boundaries reject
    non-finite entries, so every policy's decision functions only ever
    observe finite floats."""
    from repro.errors import TraceError
    from repro.traces.io import read_trace_csv
    from repro.traces.synthetic import SyntheticTraceConfig, generate_trace

    import math
    import tempfile
    from pathlib import Path

    import numpy as np

    from repro.core.dissemination.filtering import FILTERED_POLICIES

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "poisoned.csv"
        path.write_text("time_s,value\n0.0,1.0\n1.0,nan\n")
        with pytest.raises(TraceError, match="non-finite"):
            read_trace_csv(path)
    with pytest.raises(ConfigurationError, match="finite"):
        generate_trace(
            "poisoned",
            SyntheticTraceConfig(volatility=float("nan")),
            np.random.default_rng(1),
        )

    # A legitimately generated trace is finite end-to-end, so each
    # policy's scalar decision path only ever sees finite operands.
    trace = generate_trace(
        "clean", SyntheticTraceConfig(n_samples=500), np.random.default_rng(7)
    )
    assert all(math.isfinite(v) for v in trace.values.tolist())
    assert all(math.isfinite(t) for t in trace.times.tolist())
    for policy in FILTERED_POLICIES:
        filt = EdgeFilter(policy, 0.05, trace.initial_value)
        for _time, value in zip(trace.times.tolist(), trace.values.tolist()):
            filt.decide(value, 0.01, tag=0.05 if policy == "centralized" else None)
            assert math.isfinite(filt.last_sent)
