"""The reference tagger's answer in the shape of the staircase tagger's.

:meth:`StaircaseTagger.tag` takes a run of values in one pass; the
reference :meth:`SourceTagger.examine` takes one value at a time.  The
tagger's tests hold the two equal through :func:`examined`.
"""

from __future__ import annotations


def examined(scalar, item_id, values):
    """:meth:`SourceTagger.examine` value by value, answered in the shape
    of :meth:`StaircaseTagger.tag`'s pass: checks per value, the
    positions disseminated, their tags."""
    decisions = [scalar.examine(item_id, value) for value in values]
    (checks,) = {decision.checks for decision in decisions}
    sent = [i for i, decision in enumerate(decisions) if decision.disseminate]
    return checks, sent, [decisions[i].tag for i in sent]
