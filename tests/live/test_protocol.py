"""Framing and codec tests for the live wire protocol."""

import asyncio
import json
import struct
from dataclasses import asdict

import pytest

from repro.live.protocol import (
    MAX_FRAME_BYTES,
    Bye,
    Forward,
    Heartbeat,
    Hello,
    ProtocolError,
    ResyncRequest,
    ResyncResponse,
    Stats,
    Update,
    decode_payload,
    encode_message,
    read_message,
)

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


def test_decode_rejects_garbage():
    with pytest.raises(ProtocolError):
        decode_payload(b"\xff\x00 not json")
    with pytest.raises(ProtocolError):
        decode_payload(b"[1, 2, 3]")
    with pytest.raises(ProtocolError):
        decode_payload(b'{"type": "warp"}')
    with pytest.raises(ProtocolError):
        decode_payload(b'{"type": "update", "unexpected": 1}')


def _feed(chunks):
    """A StreamReader pre-loaded with byte chunks and EOF."""
    reader = asyncio.StreamReader()
    for chunk in chunks:
        reader.feed_data(chunk)
    reader.feed_eof()
    return reader


def test_read_message_reassembles_split_frames():
    message = Update(item_id=1, value=2.5, tag=0.1, seq=9, src=3)
    frame = encode_message(message)

    async def scenario():
        # Split mid-prefix and mid-body: the reader must reassemble.
        reader = _feed([frame[:2], frame[2:7], frame[7:]])
        return await read_message(reader)

    assert asyncio.run(scenario()) == message


def test_read_message_clean_eof_returns_none():
    async def scenario():
        return await read_message(_feed([]))

    assert asyncio.run(scenario()) is None


def test_read_message_truncated_frame_raises():
    frame = encode_message(Bye(src=0))

    async def truncated_body():
        await read_message(_feed([frame[:-2]]))

    async def truncated_prefix():
        await read_message(_feed([frame[:3]]))

    with pytest.raises(ProtocolError):
        asyncio.run(truncated_body())
    with pytest.raises(ProtocolError):
        asyncio.run(truncated_prefix())


def test_read_message_rejects_oversized_length():
    async def scenario():
        await read_message(_feed([struct.pack(">I", MAX_FRAME_BYTES + 1)]))

    with pytest.raises(ProtocolError):
        asyncio.run(scenario())
