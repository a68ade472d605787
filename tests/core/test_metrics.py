"""Unit tests for cost counters."""

from dataclasses import fields

from repro.core.metrics import CostCounters


def test_checks_split_by_role():
    counters = CostCounters()
    counters.record_check(0, is_source=True, count=3)
    counters.record_check(5, is_source=False)
    assert counters.source_checks == 3
    assert counters.repository_checks == 1
    assert counters.per_node_checks == {0: 3, 5: 1}


def test_messages_split_by_role():
    counters = CostCounters()
    counters.record_message(0, is_source=True)
    counters.record_message(5, is_source=False)
    counters.record_message(5, is_source=False)
    assert counters.messages == 3
    assert counters.source_messages == 1
    assert counters.per_node_messages == {0: 1, 5: 2}


def test_deliveries():
    counters = CostCounters()
    counters.record_delivery()
    counters.record_delivery()
    assert counters.deliveries == 2


def test_drops_accumulate_independently_of_deliveries():
    counters = CostCounters()
    counters.record_message(0, is_source=True)
    counters.record_message(0, is_source=True)
    counters.record_delivery()
    counters.record_drop()
    assert counters.drops == 1
    assert counters.deliveries == 1
    # The lossy-network identity: sent = delivered + dropped.
    assert counters.deliveries + counters.drops == counters.messages


def test_fresh_counters_zeroed():
    counters = CostCounters()
    assert counters.messages == 0
    assert counters.source_checks == counters.repository_checks == 0
    assert counters.deliveries == 0


def _distinct(scale: int) -> CostCounters:
    """Every field its own value: int ``k * scale`` for the k-th field,
    ``{7: k * scale, scale: 1}`` for a per-node dict."""
    return CostCounters(**{
        f.name: {7: k * scale, scale: 1} if f.name.startswith("per_node") else k * scale
        for k, f in enumerate(fields(CostCounters), start=1)
    })


def test_merge_adds_every_field_into_itself():
    """Distinct values per field catch a field dropped or added into
    another; the fleet merge and the engine's fold both go through here."""
    merged = _distinct(1)
    merged.merge(_distinct(100))
    assert merged == CostCounters(**{
        f.name: {7: k * 101, 1: 1, 100: 1} if f.name.startswith("per_node") else k * 101
        for k, f in enumerate(fields(CostCounters), start=1)
    })
