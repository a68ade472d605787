"""Wire protocol of the live repository network and the fleet.

Every frame is a 4-byte big-endian unsigned length followed by exactly
that many bytes of body.  A ``forwards`` body -- the links' one data
frame, the hot path -- is binary: the kind byte :data:`ROWS_KIND`, then
one fixed 44-byte :data:`ROW` record per update, packed and unpacked
with no float ever turned into text.  Every other body is a UTF-8 JSON
object, whose first byte is ``{``: stdlib-only and self-describing, and
exact for floats because Python's JSON encoder emits ``repr``-faithful
doubles.

Message types (the ``"type"`` field):

- ``hello`` -- connection handshake (:class:`Hello`): protocol version
  plus the sender's identity and connection generation, written as the
  first frame of every connection.  A version mismatch is a
  :class:`ProtocolError`; the fleet uses the generation counter to
  detect re-established connections and trigger anti-entropy resync;
- ``update`` -- one data-item update (:class:`Update`).  No link sends
  it; it remains a decodable frame type and a node's typed front door
  (``RepositoryNode.on_message(update, now)``);
- ``forwards`` -- the links' data frame (:class:`Forwards`): every
  update a link had queued when its pump woke, one row each.  A link
  multiplexes many nodes over one connection, so a row carries the
  destination node id and the absolute simulated arrival time the
  receiver should realise.  The row is the message end to end: nodes
  emit it, the runtime queues it and :func:`encode_rows` packs it as it
  is; the receiver unpacks it as a tuple of the same seven fields,
  whose types the record fixes (the runtime checks what it cannot: a
  finite stamp and value, a destination hosted there);
- ``forward`` -- one such row as a JSON frame of its own
  (:class:`Forward`).  No link sends it; it remains decodable, is the
  typed way to state a row (:func:`forward_row`), and is the unit the
  perf ledger's codec probes time;
- ``heartbeat`` -- connection liveness probe sent between updates so
  severed peers are noticed and reconnected (:class:`Heartbeat`);
  carries no data and stays out of the conservation accounting;
- ``stats`` -- periodic telemetry frame a traced fleet worker
  piggybacks on its heartbeat cadence (:class:`Stats`): its counters'
  message/delivery/drop totals plus the sender's pending-queue depth.
  Receivers fold it into their metrics registry; like heartbeats it
  stays out of the conservation accounting and is only emitted when
  the run is traced, so untraced fleet runs put nothing extra on the
  wire;
- ``resync-request`` / ``resync-response`` -- one round of the
  sample-based anti-entropy protocol (:class:`ResyncRequest`,
  :class:`ResyncResponse`; the sans-io state machines live in
  :mod:`repro.fleet.antientropy`);
- ``bye`` -- orderly teardown marker sent by the harness
  (:class:`Bye`).

The framing helpers are transport-agnostic: :func:`encode_message`
returns the full frame, :func:`decode_payload` parses one frame body,
and :class:`FrameAssembler` reassembles frames from arbitrary byte
chunks -- whatever one socket read returned -- for the frame server and
for callers that own their own socket loop.
Every malformed input -- garbage bytes, truncated frames, oversized
length prefixes, unknown message types, wrong fields, a row that does
not pack -- surfaces as a :class:`ProtocolError`, never as a raw
``json``/``struct``/``asyncio`` exception, so connection handlers can
reject a bad peer without taking the run down.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

from repro.errors import ReproError

__all__ = [
    "ProtocolError",
    "Hello",
    "Update",
    "Forward",
    "Forwards",
    "Heartbeat",
    "Stats",
    "ResyncRequest",
    "ResyncResponse",
    "Bye",
    "Message",
    "FrameAssembler",
    "encode_message",
    "decode_payload",
    "check_version",
    "encode_rows",
    "forward_row",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ROW",
    "ROWS_KIND",
]

#: Version of the wire protocol; bumped on any frame-shape change.  A
#: :class:`Hello` carrying a different version is rejected at handshake
#: time instead of failing mysteriously mid-stream.
PROTOCOL_VERSION = 5

#: Upper bound on one frame body; a live update is tens of bytes and an
#: anti-entropy batch a few kilobytes, so anything bigger means a
#: corrupt or hostile stream.
MAX_FRAME_BYTES = 1 << 20

_LENGTH = struct.Struct(">I")

#: One ``forwards`` row on the wire, little-endian and 44 bytes: dst,
#: arrival_s, item_id, value, tag (NaN stands for ``None``), seq, src.
ROW = struct.Struct("<ididdqi")

#: First body byte of a packed ``forwards`` frame; a JSON body's is ``{``.
ROWS_KIND = b"\x01"

_NAN = float("nan")


class ProtocolError(ReproError):
    """A malformed or oversized frame on a live connection."""


@dataclass(frozen=True)
class Hello:
    """Connection handshake, written first on every (re)connection.

    Attributes:
        src: Sender identity -- a worker id on fleet links, a node id on
            single-process live links.
        version: The sender's :data:`PROTOCOL_VERSION`; receivers reject
            a mismatch with :class:`ProtocolError`.
        generation: How many connections the sender has opened to this
            peer, starting at 1.  A generation above 1 tells the
            receiver the previous connection was severed -- frames may
            have been dropped in between -- which is the fleet's trigger
            for an anti-entropy resync.
    """

    src: int
    version: int = PROTOCOL_VERSION
    generation: int = 1

    type: str = "hello"


@dataclass(frozen=True)
class Update:
    """One data-item update pushed over a service edge.

    Attributes:
        item_id: The data item.
        value: The fresh value.
        tag: The source tag threaded with the update (the centralised
            policy's maximum violated tolerance; ``None`` otherwise).
        seq: Source-assigned sequence number, unique per run -- lets
            receivers and the harness correlate wire traffic with the
            trace, and gives the anti-entropy protocol its per-item
            heads.
        src: Node id of the sender (the serving node, not the source).
    """

    item_id: int
    value: float
    tag: float | None
    seq: int
    src: int

    type: str = "update"


@dataclass(frozen=True)
class Forward:
    """Envelope around one :class:`Update`: the update plus its routing.

    A link multiplexes many nodes over one connection, so the
    destination node id travels with the update; ``arrival_s`` is the
    absolute simulated arrival time the sending node computed
    (sender-side queueing and link delay included), which the receiver
    realises against its own epoch-synchronised clock.  These seven
    fields, in this order, are one row of a :class:`Forwards` frame,
    which is what the links send.
    """

    dst: int
    arrival_s: float
    item_id: int
    value: float
    tag: float | None
    seq: int
    src: int

    type: str = "forward"

    @classmethod
    def from_update(cls, dst: int, arrival_s: float, update: Update) -> "Forward":
        return cls(*forward_row(dst, arrival_s, update))


@dataclass(frozen=True)
class Forwards:
    """The links' data frame: everything one link had queued at one wakeup.

    Attributes:
        rows: One ``(dst, arrival_s, item_id, value, tag, seq, src)``
            row per update, oldest first -- :class:`Forward`'s fields,
            positionally: lists as the nodes emit them
            (:func:`forward_row` builds one from the typed form), tuples
            as :func:`decode_payload` unpacks them.
    """

    rows: list

    type: str = "forwards"


def forward_row(dst: int, arrival_s: float, u: Update) -> list:
    """One update and its routing as a :class:`Forwards` row."""
    return [dst, arrival_s, u.item_id, u.value, u.tag, u.seq, u.src]


def encode_rows(rows) -> bytes:
    """One complete packed ``forwards`` frame: the kind byte and one
    :data:`ROW` record per row, in order.

    Raises:
        ProtocolError: when a row does not pack -- the wrong arity, a
            field that is not a number, an id outside its record field's
            range -- or the frame would exceed :data:`MAX_FRAME_BYTES`.
    """
    pack = ROW.pack
    try:
        records = [
            pack(dst, arrival_s, item_id, value, _NAN if tag is None else tag, seq, src)
            for dst, arrival_s, item_id, value, tag, seq, src in rows
        ]
    except (struct.error, TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"forwards row does not pack: {exc}") from None
    length = 1 + ROW.size * len(records)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    return _LENGTH.pack(length) + ROWS_KIND + b"".join(records)


def _decode_rows(body: bytes) -> Forwards:
    if len(body) % ROW.size != 1:
        raise ProtocolError(
            f"forwards body of {len(body)} bytes is not the kind byte "
            f"and whole {ROW.size}-byte rows"
        )
    return Forwards([
        (dst, arrival_s, item_id, value, None if tag != tag else tag, seq, src)
        for dst, arrival_s, item_id, value, tag, seq, src
        in ROW.iter_unpack(memoryview(body)[1:])
    ])


@dataclass(frozen=True)
class Heartbeat:
    """Liveness probe between updates; receivers discard it silently."""

    src: int

    type: str = "heartbeat"


@dataclass(frozen=True)
class Stats:
    """Periodic worker telemetry, piggybacked on the heartbeat cadence.

    Only emitted by traced fleet runs (``FleetSpec.trace``); receivers
    fold the totals into their metrics registry as
    ``peer{src}.sent`` / ``.delivered`` / ``.dropped`` / ``.pending``
    gauges.  Purely observational: never counted toward message
    conservation and never consulted by any dissemination decision.

    Attributes:
        src: Reporting worker id.
        sent / delivered / dropped: That worker's counters so far
            (``messages`` / ``deliveries`` / ``drops``).
        pending: Frames queued locally (send queues + local heap).
    """

    src: int
    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    pending: int = 0

    type: str = "stats"


@dataclass(frozen=True)
class ResyncRequest:
    """One child-initiated round of the sample-based anti-entropy resync.

    Attributes:
        child: Repository node pulling its missed update-set.
        parent: Serving node the child resyncs against.
        round_no: 0 for the digest probe, then 1.. for sample rounds.
        digest: Digest of the child's full per-item head set (round 0
            only; empty otherwise).
        sample: ``[item_id, seq]`` pairs of this round's sample (empty
            on the digest probe).
    """

    child: int
    parent: int
    round_no: int
    digest: str = ""
    sample: tuple = field(default_factory=tuple)

    type: str = "resync-request"


@dataclass(frozen=True)
class ResyncResponse:
    """The parent's classification of one resync round.

    Attributes:
        child / parent / round_no: Echoed from the request.
        complete: True when the digest matched -- the child missed
            nothing and the session is over in one round trip.
        known: Sampled item ids whose heads match what the parent last
            forwarded (the child is current on these).
        missing: ``[item_id, seq, value]`` triples for sampled items the
            child fell behind on -- the delta replay, batched into the
            response.
    """

    child: int
    parent: int
    round_no: int
    complete: bool = False
    known: tuple = field(default_factory=tuple)
    missing: tuple = field(default_factory=tuple)

    type: str = "resync-response"


@dataclass(frozen=True)
class Bye:
    """Orderly end-of-stream marker; receivers drain and close."""

    src: int

    type: str = "bye"


Message = (
    Hello | Update | Forward | Forwards | Heartbeat | Stats
    | ResyncRequest | ResyncResponse | Bye
)

_DECODERS = {
    "hello": Hello,
    "update": Update,
    "forward": Forward,
    "heartbeat": Heartbeat,
    "stats": Stats,
    "resync-request": ResyncRequest,
    "resync-response": ResyncResponse,
    "bye": Bye,
}

#: Fields that travel as JSON arrays but are tuples in the dataclasses
#: (tuples keep the frozen messages hashable).
_TUPLE_FIELDS = {
    "resync-request": ("sample",),
    "resync-response": ("known", "missing"),
}


#: One encoder for every frame: ``json.dumps`` with ``separators`` builds
#: a fresh ``JSONEncoder`` per call, at nearly half a small frame's cost.
_encode_json = json.JSONEncoder(separators=(",", ":")).encode


def encode_message(message: Message) -> bytes:
    """Serialise one message into a complete length-prefixed frame."""
    if type(message) is Forwards:
        return encode_rows(message.rows)
    # Every frame type is a flat dataclass, so its instance dict is the
    # body; ``asdict`` would deep-copy it first, at three times the cost.
    body = _encode_json(vars(message)).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LENGTH.pack(len(body)) + body


def decode_payload(body: bytes) -> Message:
    """Parse one frame body back into its message dataclass.

    Raises:
        ProtocolError: on a packed body that is not whole rows, on
            non-JSON bodies, unknown types, or field mismatches.
    """
    if body[:1] == ROWS_KIND:
        return _decode_rows(body)
    try:
        document = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame body: {exc}") from None
    if not isinstance(document, dict) or "type" not in document:
        raise ProtocolError(f"frame body is not a tagged object: {document!r}")
    kind = document.pop("type")
    decoder = _DECODERS.get(kind)
    if decoder is None:
        raise ProtocolError(
            f"unknown message type {kind!r}; known: {sorted(_DECODERS)}"
        )
    for name in _TUPLE_FIELDS.get(kind, ()):
        value = document.get(name)
        if isinstance(value, list):
            document[name] = tuple(
                tuple(entry) if isinstance(entry, list) else entry
                for entry in value
            )
    try:
        return decoder(**document)
    except TypeError as exc:
        raise ProtocolError(f"bad {kind!r} fields: {exc}") from None


def check_version(hello: Hello) -> None:
    """Reject a handshake from a peer speaking a different protocol.

    Raises:
        ProtocolError: when the peer's version differs from ours.
    """
    if hello.version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"peer {hello.src} speaks protocol version {hello.version}, "
            f"this build speaks {PROTOCOL_VERSION}"
        )


class FrameAssembler:
    """Incremental frame reassembly from arbitrary byte chunks.

    Transports that own their socket loop feed whatever the OS hands
    them -- half a length prefix, three frames and a bit, one byte at a
    time -- and get back complete decoded messages.  All framing
    violations (oversized length prefix, undecodable body) are a
    :class:`ProtocolError`; after one the assembler is poisoned and
    refuses further input, because a byte stream with a bad frame has no
    trustworthy resynchronisation point.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        #: The framing error that poisoned this assembler, if any.
        self.error: ProtocolError | None = None

    def feed(self, chunk: bytes) -> list[Message]:
        """Absorb one chunk and return every frame it completed.

        Frames completed ahead of a bad one in the same chunk are
        returned, not lost with it; the error then waits in
        :attr:`error` and for the next call.

        Raises:
            ProtocolError: on an oversized length prefix or a malformed
                frame body at the head of the chunk, and on any feed
                after a previous error.
        """
        if self.error is not None:
            raise self.error
        buffer = self._buffer
        buffer.extend(chunk)
        messages: list[Message] = []
        start = 0
        try:
            while len(buffer) - start >= _LENGTH.size:
                (length,) = _LENGTH.unpack_from(buffer, start)
                if length > MAX_FRAME_BYTES:
                    raise ProtocolError(
                        f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}"
                    )
                end = start + _LENGTH.size + length
                if len(buffer) < end:
                    break
                body = bytes(buffer[start + _LENGTH.size : end])
                start = end
                messages.append(decode_payload(body))
        except ProtocolError as exc:
            self.error = exc
            if not messages:
                raise
        del buffer[:start]
        return messages

    def at_boundary(self) -> bool:
        """True when no partial frame is buffered (a clean EOF point)."""
        return not self._buffer
