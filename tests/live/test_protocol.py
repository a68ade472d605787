"""Framing and codec tests for the live wire protocol."""

import asyncio
import json
import struct
from dataclasses import asdict

import pytest

from repro.live.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ROW,
    ROWS_KIND,
    Bye,
    Forward,
    Forwards,
    Heartbeat,
    Hello,
    ProtocolError,
    ResyncRequest,
    ResyncResponse,
    Stats,
    Update,
    check_version,
    decode_payload,
    encode_message,
)
from repro.live.wire import FrameServer

pytestmark = pytest.mark.live


def test_update_round_trips_exactly():
    message = Update(item_id=3, value=101.37500000000001, tag=0.05, seq=42, src=7)
    frame = encode_message(message)
    assert decode_payload(frame[4:]) == message


def test_bye_round_trips():
    frame = encode_message(Bye(src=0))
    assert decode_payload(frame[4:]) == Bye(src=0)


def test_none_tag_survives_the_wire():
    frame = encode_message(Update(item_id=0, value=1.0, tag=None, seq=1, src=0))
    assert decode_payload(frame[4:]).tag is None


def test_length_prefix_matches_body():
    frame = encode_message(Update(item_id=0, value=1.0, tag=None, seq=1, src=0))
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4


@pytest.mark.parametrize(
    "message",
    [
        Hello(src=3, generation=2),
        Update(item_id=3, value=101.37500000000001, tag=0.05, seq=42, src=7),
        Forward(dst=9, arrival_s=12.625, item_id=3, value=1.5, tag=None, seq=42, src=7),
        Heartbeat(src=1),
        Stats(src=1, sent=10, delivered=8, dropped=1, pending=1),
        ResyncRequest(child=4, parent=2, round_no=1, sample=((0, 7), (3, 9))),
        ResyncResponse(
            child=4, parent=2, round_no=1, known=(0,), missing=((3, 11, 2.5),)
        ),
        Bye(src=0),
    ],
    ids=lambda message: message.type,
)
def test_frame_body_is_the_asdict_json(message):
    """The encoder reads the instance dict instead of deep-copying through
    ``asdict``; for these flat frames the bytes must be the same."""
    body = json.dumps(asdict(message), separators=(",", ":")).encode("utf-8")
    assert encode_message(message) == struct.pack(">I", len(body)) + body


#: One row's exact bytes: dst 9, arrival 12.625, item 3, value 1.5, tag
#: 0.25, seq 42, src 7 -- little-endian int32, double, int32, double,
#: double, int64, int32.
ROW_GOLDEN = (
    "09000000" "0000000000402940" "03000000" "000000000000f83f"
    "000000000000d03f" "2a00000000000000" "07000000"
)


def test_forwards_row_layout_is_pinned_to_the_protocol_version():
    """The packed row is the protocol: changing its layout without
    bumping ``PROTOCOL_VERSION`` must fail here, so peers of two builds
    reject each other at ``Hello`` instead of misreading each other."""
    assert PROTOCOL_VERSION == 5
    assert ROW.size == 44
    row = [9, 12.625, 3, 1.5, 0.25, 42, 7]
    frame = encode_message(Forwards(rows=[row]))
    assert frame == struct.pack(">I", 45) + ROWS_KIND + bytes.fromhex(ROW_GOLDEN)
    assert ROWS_KIND != b"{"  # a JSON body can never look packed
    assert decode_payload(frame[4:]) == Forwards(rows=[tuple(row)])
    # ``None`` travels as a NaN tag and comes back as ``None``.
    none_tag = encode_message(Forwards(rows=[[*row[:4], None, *row[5:]]]))
    assert ROW.unpack(none_tag[5:])[4] != ROW.unpack(none_tag[5:])[4]
    assert decode_payload(none_tag[4:]).rows[0][4] is None


def test_a_version_4_peer_is_rejected():
    check_version(Hello(src=0, version=5))
    with pytest.raises(ProtocolError, match="version 4"):
        check_version(Hello(src=0, version=4))
    hello = decode_payload(encode_message(Hello(src=0, version=4))[4:])
    with pytest.raises(ProtocolError):
        check_version(hello)


def test_a_json_forwards_frame_is_an_unknown_type():
    """Version 4's data frame: no longer a message type of this protocol."""
    with pytest.raises(ProtocolError, match="unknown message type 'forwards'"):
        decode_payload(b'{"rows":[[9,12.625,3,1.5,null,42,7]],"type":"forwards"}')


def test_decode_rejects_garbage():
    with pytest.raises(ProtocolError):
        decode_payload(b"\xff\x00 not json")
    with pytest.raises(ProtocolError):
        decode_payload(b"[1, 2, 3]")
    with pytest.raises(ProtocolError):
        decode_payload(b'{"type": "warp"}')
    with pytest.raises(ProtocolError):
        decode_payload(b'{"type": "update", "unexpected": 1}')


class _Stream:
    """A connection that hands the server exactly ``chunks``, one per
    socket read, then EOF -- the calls its read loop makes, no more."""

    def __init__(self, chunks):
        self._chunks = list(chunks)

    async def read(self, _n):
        return self._chunks.pop(0) if self._chunks else b""

    def close(self):
        pass

    async def wait_closed(self):
        pass


def _serve(chunks):
    """Run the frame server's read loop over ``chunks``.  Returns the
    frames it passed on and how many connections it rejected (0 or 1)."""

    async def scenario():
        frames = []
        server = FrameServer(frames.append)
        stream = _Stream(chunks)
        await server._handle(stream, stream)
        return frames, server.protocol_errors

    return asyncio.run(scenario())


def test_chunked_reads_reassemble_split_frames():
    first = ResyncRequest(child=1, parent=0, round_no=0, digest="d")
    second = ResyncRequest(child=2, parent=0, round_no=1, sample=((0, 7),))
    stream = encode_message(first) + encode_message(second)
    # Split mid-prefix, mid-body and across the frame boundary: the
    # server must reassemble whatever each read returns.
    cuts = [0, 2, 9, len(encode_message(first)) + 3, len(stream)]
    chunks = [stream[a:b] for a, b in zip(cuts, cuts[1:])]
    assert _serve(chunks) == ([first, second], 0)
    assert _serve([stream]) == ([first, second], 0)


def test_chunked_reads_clean_eof_ends_the_connection_quietly():
    assert _serve([]) == ([], 0)
    frame = ResyncRequest(child=1, parent=0, round_no=0)
    assert _serve([encode_message(frame)]) == ([frame], 0)


def test_chunked_reads_reject_eof_inside_a_frame():
    good = ResyncRequest(child=1, parent=0, round_no=0)
    frame = encode_message(good)
    # Mid-body and mid-prefix; the complete frame ahead is still served.
    assert _serve([frame[:-2]]) == ([], 1)
    assert _serve([frame[:3]]) == ([], 1)
    assert _serve([frame + frame[:3]]) == ([good], 1)


def test_chunked_reads_reject_an_oversized_length():
    assert _serve([struct.pack(">I", MAX_FRAME_BYTES + 1)]) == ([], 1)
