"""The links' batch encoding round-trips any backlog, however it is cut.

A link writes whatever it had queued as one run of bytes
(:func:`~repro.live.wire.encode_backlog`): runs of messages as
``forwards`` frames, control frames in between.  The receiving side sees
those bytes in whatever pieces the socket returns them.  Whatever the
backlog and wherever the cuts fall, the receiver must end up with the
same messages in the same order, every float bit for bit -- the planes'
fidelity agreement rests on ``arrival_s`` and ``value`` surviving the
wire exactly.
"""

from __future__ import annotations

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live.protocol import (
    Forwards,
    FrameAssembler,
    Heartbeat,
    ResyncRequest,
    ResyncResponse,
    check_row,
)
from repro.live.wire import encode_backlog

_ids = st.integers(min_value=0, max_value=2**40)
_floats = st.floats(allow_nan=False, allow_infinity=False)

#: Rows, as the runtime queues them: dst, arrival_s, item_id, value,
#: tag, seq, src.
_messages = st.tuples(
    _ids, _floats, _ids, _floats, st.none() | _floats, _ids, _ids
).map(list)
_controls = st.one_of(
    st.builds(Heartbeat, src=_ids),
    st.builds(
        ResyncRequest,
        child=_ids,
        parent=_ids,
        round_no=_ids,
        digest=st.text(max_size=8),
        sample=st.lists(st.tuples(_ids, _ids), max_size=3).map(tuple),
    ),
    st.builds(
        ResyncResponse,
        child=_ids,
        parent=_ids,
        round_no=_ids,
        complete=st.booleans(),
        known=st.lists(_ids, max_size=3).map(tuple),
        missing=st.lists(st.tuples(_ids, _ids, _floats), max_size=3).map(tuple),
    ),
)


def _bits(message) -> tuple:
    """A message as a comparable tuple with every float as its 8 bytes,
    so ``-0.0`` is not ``0.0`` and nothing compares by tolerance."""
    if isinstance(message, list):
        fields = tuple(message)
    else:
        fields = tuple(vars(message).values())

    def exact(value):
        if isinstance(value, float):
            return struct.pack(">d", value)
        if isinstance(value, tuple):
            return tuple(map(exact, value))
        return value

    return type(message).__name__, exact(fields)


@given(
    backlog=st.lists(_messages | _controls, max_size=40),
    cuts=st.lists(st.integers(min_value=0, max_value=4096), max_size=12),
)
@settings(max_examples=200, deadline=None)
def test_any_backlog_round_trips_through_any_chunking(backlog, cuts):
    stream = encode_backlog(backlog)
    edges = sorted({0, len(stream), *(cut % (len(stream) + 1) for cut in cuts)})
    assembler = FrameAssembler()
    received = []
    for start, end in zip(edges, edges[1:]):
        for frame in assembler.feed(stream[start:end]):
            if isinstance(frame, Forwards):
                assert frame.rows  # a run is never empty
                for row in frame.rows:
                    check_row(row)
                received.extend(frame.rows)
            else:
                received.append(frame)
    assert assembler.at_boundary() and assembler.error is None
    assert [_bits(m) for m in received] == [_bits(m) for m in backlog]


@given(backlog=st.lists(_messages | _controls, max_size=40))
@settings(max_examples=100, deadline=None)
def test_runs_of_messages_share_a_frame_and_control_frames_keep_their_place(backlog):
    frames = FrameAssembler().feed(encode_backlog(backlog))
    shape = [len(f.rows) if isinstance(f, Forwards) else "control" for f in frames]
    expected: list = []
    for item in backlog:
        if not isinstance(item, list):
            expected.append("control")
        elif expected and expected[-1] != "control":
            expected[-1] += 1
        else:
            expected.append(1)
    assert shape == expected
