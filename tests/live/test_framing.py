"""Partial-frame reassembly and the hardened v2 protocol surface."""

import struct

import pytest

from repro.live.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    Forward,
    Forwards,
    FrameAssembler,
    Heartbeat,
    Hello,
    ProtocolError,
    ResyncRequest,
    ResyncResponse,
    ROW,
    ROWS_KIND,
    Update,
    check_version,
    decode_payload,
    encode_message,
    encode_rows,
    forward_row,
)

pytestmark = pytest.mark.live


def test_v2_frames_round_trip_exactly():
    messages = [
        Hello(src=3, generation=7),
        Heartbeat(src=1),
        Forward(
            dst=9, arrival_s=12.5, item_id=2, value=1.25, tag=None, seq=8, src=4
        ),
        ResyncRequest(
            child=2, parent=1, round_no=3, sample=((0, 5), (7, 2))
        ),
        ResyncResponse(
            child=2,
            parent=1,
            round_no=3,
            known=(0,),
            missing=((7, 9, 3.75),),
        ),
    ]
    for message in messages:
        assert decode_payload(encode_message(message)[4:]) == message


def test_forward_wraps_and_unwraps_an_update():
    update = Update(item_id=5, value=2.5, tag=0.1, seq=11, src=6)
    forward = Forward.from_update(42, 99.5, update)
    assert forward.dst == 42
    assert forward.arrival_s == 99.5
    assert forward.to_update() == update


def test_check_version_rejects_a_mismatched_peer():
    check_version(Hello(src=0))  # current version passes
    with pytest.raises(ProtocolError):
        check_version(Hello(src=0, version=PROTOCOL_VERSION + 1))


def test_encode_rejects_oversized_bodies():
    with pytest.raises(ProtocolError):
        encode_message(
            ResyncRequest(child=0, parent=0, round_no=0, digest="x" * MAX_FRAME_BYTES)
        )


def test_assembler_reassembles_byte_at_a_time():
    frames = b"".join(
        encode_message(Update(item_id=i, value=float(i), tag=None, seq=i, src=0))
        for i in range(3)
    )
    assembler = FrameAssembler()
    messages = []
    for i in range(len(frames)):
        messages.extend(assembler.feed(frames[i : i + 1]))
    assert [m.item_id for m in messages] == [0, 1, 2]
    assert assembler.at_boundary()
    assert assembler.pending_bytes == 0


def test_assembler_handles_many_frames_in_one_chunk():
    chunk = encode_message(Heartbeat(src=1)) + encode_message(Heartbeat(src=2))
    messages = FrameAssembler().feed(chunk)
    assert [m.src for m in messages] == [1, 2]


def test_assembler_tracks_partial_frames():
    frame = encode_message(Hello(src=0))
    assembler = FrameAssembler()
    assert assembler.feed(frame[:5]) == []
    assert assembler.pending_bytes == 5
    assert not assembler.at_boundary()
    assert assembler.feed(frame[5:]) == [Hello(src=0)]
    assert assembler.at_boundary()


def test_assembler_poisons_on_oversized_prefix():
    assembler = FrameAssembler()
    with pytest.raises(ProtocolError):
        assembler.feed(struct.pack(">I", MAX_FRAME_BYTES + 1))
    with pytest.raises(ProtocolError):
        assembler.feed(b"")  # refuses all input after a framing error


def test_assembler_poisons_on_garbage_body():
    garbage = struct.pack(">I", 4) + b"\xff\xfe\xfd\xfc"
    assembler = FrameAssembler()
    with pytest.raises(ProtocolError):
        assembler.feed(garbage)
    with pytest.raises(ProtocolError):
        assembler.feed(encode_message(Heartbeat(src=0)))


def test_assembler_yields_frames_before_the_bad_one():
    good = encode_message(Heartbeat(src=9))
    bad = struct.pack(">I", 3) + b"{{{"
    assembler = FrameAssembler()
    assert assembler.feed(good) == [Heartbeat(src=9)]
    with pytest.raises(ProtocolError):
        assembler.feed(bad)


def test_assembler_keeps_the_good_frames_that_share_a_chunk_with_a_bad_one():
    good = [Heartbeat(src=1), Heartbeat(src=2)]
    bad = struct.pack(">I", 3) + b"{{{"
    chunk = b"".join(map(encode_message, good)) + bad + encode_message(Heartbeat(src=3))
    assembler = FrameAssembler()
    # Eager: the good frames come back now, the error stays behind them.
    assert assembler.feed(chunk) == good
    assert isinstance(assembler.error, ProtocolError)
    with pytest.raises(ProtocolError):
        assembler.feed(b"")  # poisoned: nothing after the bad frame is read

    oversized = FrameAssembler()
    assert oversized.feed(
        encode_message(good[0]) + struct.pack(">I", MAX_FRAME_BYTES + 1)
    ) == good[:1]
    with pytest.raises(ProtocolError):
        oversized.feed(b"")


def test_forwards_rows_round_trip_and_reject_malformed_ones():
    update = Update(item_id=5, value=2.5, tag=0.1, seq=11, src=6)
    row = forward_row(42, 99.5, update)
    assert row == [42, 99.5, 5, 2.5, 0.1, 11, 6]
    frame = decode_payload(encode_message(Forwards(rows=[row]))[4:])
    assert frame.rows == [tuple(row)]
    # A whole number may stand in for a float; it comes back a float.
    (back,) = decode_payload(encode_rows([[1, 2, 0, 3, None, 1, 0]])[4:]).rows
    assert back == (1, 2.0, 0, 3.0, None, 1, 0)
    assert type(back[1]) is float and type(back[3]) is float
    body = encode_rows([row])[4:]
    for bad in (
        body[:-1],  # a row cut short
        body + b"\0",  # a byte past the last row
        body + body[1:][:-4],  # a row and most of another
    ):
        with pytest.raises(ProtocolError):
            decode_payload(bad)
    assert decode_payload(ROWS_KIND).rows == []
    assert len(body) == 1 + ROW.size


@pytest.mark.parametrize(
    "row",
    [
        [42, 99.5, 5, "2.5", 0.1, 11, 6],  # a string value
        [42, 99.5, 5, 2.5, "0.1", 11, 6],  # a string tag
        [42, None, 5, 2.5, 0.1, 11, 6],  # no arrival stamp
        [42.0, 99.5, 5, 2.5, 0.1, 11, 6],  # a float node id
        [2**31, 99.5, 5, 2.5, 0.1, 11, 6],  # dst past int32
        [42, 99.5, -(2**31) - 1, 2.5, 0.1, 11, 6],  # item id below int32
        [42, 99.5, 5, 2.5, 0.1, 2**63, 6],  # seq past int64
        [42, 99.5, 5, 10**400, 0.1, 11, 6],  # no double holds it
        [42, 99.5, 5, 2.5, 0.1, 11],  # arity
        [42, 99.5, 5, 2.5, 0.1, 11, 6, 0],
        {"dst": 42},
        7,
        None,
    ],
    ids=[
        "string-value", "string-tag", "none-arrival", "float-dst", "dst-range",
        "item-range", "seq-range", "huge-value", "short", "long", "dict", "int",
        "none",
    ],
)
def test_a_row_that_does_not_pack_is_a_protocol_error(row):
    """Whatever the record cannot hold is refused at the sender as a
    protocol error, never leaked as ``struct.error``."""
    with pytest.raises(ProtocolError):
        encode_rows([[1, 0.5, 0, 1.0, None, 1, 0], row])
    with pytest.raises(ProtocolError):
        encode_message(Forwards(rows=[row]))


def test_a_forwards_frame_that_would_exceed_the_bound_is_refused():
    rows = [[1, 0.5, 0, 1.0, None, 1, 0]] * (MAX_FRAME_BYTES // ROW.size + 1)
    with pytest.raises(ProtocolError):
        encode_rows(rows)
