"""The links' batch encoding round-trips any backlog, however it is cut,
and the receiver survives any bytes a peer can put in a rows frame.

A link writes whatever it had queued as one run of bytes
(:func:`~repro.live.wire.encode_backlog`): runs of messages as packed
``forwards`` frames, control frames in between.  The receiving side
sees those bytes in whatever pieces the socket returns them.  Whatever
the backlog and wherever the cuts fall, the receiver must end up with
the same messages in the same order, every float bit for bit -- the
planes' fidelity agreement rests on ``arrival_s`` and ``value``
surviving the wire exactly.  And whatever a peer writes after the rows
kind byte, the receiver queues only well-formed rows or refuses the
connection with a :class:`~repro.live.protocol.ProtocolError`.
"""

from __future__ import annotations

import functools
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.config import SimulationConfig
from repro.live.harness import build_live_network
from repro.live.protocol import (
    ROW,
    ROWS_KIND,
    Forwards,
    FrameAssembler,
    Heartbeat,
    ProtocolError,
    ResyncRequest,
    ResyncResponse,
)
from repro.live.transport import TcpWire
from repro.live.wire import DueQueue, encode_backlog

_ids = st.integers(min_value=0, max_value=2**40)
_int32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)
_int64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_floats = st.floats(allow_nan=False, allow_infinity=False)
#: The doubles a row's floats must survive: signed zeros, subnormals,
#: the largest magnitudes, and whatever else Hypothesis finds.
_edge_floats = _floats | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     -1.7976931348623157e308]
)

#: Rows, as the runtime queues them: dst, arrival_s, item_id, value,
#: tag, seq, src -- every field within its record field's range.
_messages = st.tuples(
    _int32, _edge_floats, _int32, _edge_floats, st.none() | _edge_floats, _int64, _int32
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
    """A message as a comparable tuple with every float as its hex form,
    so ``-0.0`` is not ``0.0`` and nothing compares by tolerance; a row
    is a row whether it is the list a node emitted or the tuple the
    receiver unpacked."""
    if isinstance(message, (list, tuple)):
        name, fields = "row", tuple(message)
    else:
        name, fields = type(message).__name__, tuple(vars(message).values())

    def exact(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, tuple):
            return tuple(map(exact, value))
        return value

    return name, exact(fields)


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
                received.extend(frame.rows)
            else:
                received.append(frame)
    assert assembler.at_boundary() and assembler.error is None
    assert [_bits(m) for m in received] == [_bits(m) for m in backlog]
    sent_tags = [m[4] for m in backlog if isinstance(m, list)]
    got_tags = [m[4] for m in received if isinstance(m, tuple)]
    assert [t is None for t in got_tags] == [t is None for t in sent_tags]


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


@functools.cache
def _runtime() -> TcpWire:
    """A TCP runtime over a small network; only its inbound check runs."""
    config = SimulationConfig(n_repositories=5, n_routers=15, n_items=2, trace_samples=80)
    return TcpWire(build_live_network(config))


#: 44 bytes of anything, or a record packed from fields that are each in
#: range but may name no hosted node or carry a NaN or infinite stamp.
_records = st.binary(min_size=ROW.size, max_size=ROW.size) | st.builds(
    ROW.pack,
    st.sampled_from(range(-1, 8)) | _int32,
    st.floats(),
    _int32,
    st.floats(),
    st.floats(),
    _int64,
    _int32,
)

_ROW_TYPES = (int, float, int, float, (float, type(None)), int, int)


@given(
    records=st.lists(_records, max_size=6),
    tail=st.just(b"") | st.binary(max_size=2 * ROW.size),
)
@settings(max_examples=300, deadline=None)
def test_any_bytes_after_the_rows_kind_byte_are_rows_or_a_protocol_error(records, tail):
    body = ROWS_KIND + b"".join(records) + tail
    runtime = _runtime()
    runtime.due = DueQueue()
    try:
        (frame,) = FrameAssembler().feed(struct.pack(">I", len(body)) + body)
        for row in frame.rows:
            assert len(row) == 7
            assert all(map(isinstance, row, _ROW_TYPES))
        runtime._on_frame(frame)
    except ProtocolError:
        return
    # Accepted: every row is queued, for a node hosted here, at a finite
    # due time -- the shape held by construction, the rest was checked.
    assert len(runtime.due) == len(body) // ROW.size
    for due, _order, _action, (row,) in runtime.due._heap:
        assert row[0] in runtime.hosted
        assert due == row[1] and abs(due) != float("inf")
        assert abs(row[3]) != float("inf") and row[3] == row[3]
