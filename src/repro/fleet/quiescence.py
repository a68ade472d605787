"""When a fleet run is over: the four-counter termination rule, sans-io.

A fleet is quiet when no row is on a due heap, in a link queue or on
the wire, and no anti-entropy session is open -- a fact about N
processes at one instant that no process can observe.  What each worker
can report is a snapshot of its own monotone counters, ``(sent,
delivered, dropped)``, and its own ``pending`` (due heap, sessions,
link queues).  :class:`QuiescenceDetector` decides from two *sets* of
such snapshots (Mattern's four-counter rule):

1. counters only grow;
2. set 1 was complete at some instant ``T``, and every snapshot of
   set 2 was taken after ``T``;
3. so if the two sets are equal, every worker's counters held those
   values *at* ``T``;
4. and if they are conserved (``sent == delivered + dropped`` over the
   fleet), every row sent had been processed or dropped at ``T`` --
   nothing was in flight, and nodes only react, so nothing is later;
5. what the counters do not cover is excluded beforehand (the source
   replay is through before the first snapshot is asked for) or is
   ``pending`` (an open session, a queued control frame).

One thing is in neither: the ``Hello`` of a reconnect.  It moves no
counter, so the session it opens counts from the moment it is open and
not while the ``Hello`` is on its way.  A severed link reconnects on its
next write; when that write is a row, the row is in ``sent`` and the
session is open before the row is delivered, and the rule holds.  When
nothing is left to write but a heartbeat, the fleet may go quiet first
and that link's resync does not happen.

Set 1 is the latest counters each worker *pushed* when it went locally
idle (cheap, unsolicited, possibly stale; ``pending`` is 0 by the fact
of pushing, so a push does not carry it); set 2 is one solicited wave
the supervisor runs only when set 1 says "probably done" -- the
summary-first, confirm-second shape of :mod:`repro.fleet.antientropy`.
A wave that disagrees settles nothing and the next pushed snapshot
reopens the question.

The detector does no I/O and reads no clock: the supervisor feeds it
and sends what it asks for, and a model can drive it through any
interleaving (``tests/properties/test_quiescence_properties.py``).
"""

from __future__ import annotations

__all__ = ["QuiescenceDetector", "Snapshot", "residual"]

#: One worker's ``(sent, delivered, dropped, pending)``.
Snapshot = tuple[int, int, int, int]


def residual(snapshots: dict[int, Snapshot]) -> int:
    """Rows sent but neither delivered nor dropped, over ``snapshots``."""
    return sum(s[0] - s[1] - s[2] for s in snapshots.values())


class QuiescenceDetector:
    """Two equal, conserved, idle snapshot sets, the second begun after
    the first was complete.

    Args:
        n_workers: How many workers make a set complete.
    """

    def __init__(self, n_workers: int) -> None:
        self.n_workers = n_workers
        #: The latest snapshot each worker pushed (set 1 in the making).
        self.pushed: dict[int, Snapshot] = {}
        # Whether `pushed` changed since a wave last judged it.
        self._fresh = False
        # Set 1 as it stood when the open wave began, and the wave.
        self._first: dict[int, Snapshot] = {}
        self._wave: dict[int, Snapshot] = {}

    def push(self, worker: int, sent: int, delivered: int, dropped: int) -> None:
        """``worker`` went locally idle and said so: by saying it, it
        claims nothing pending, and a wave reply confirms the claim only
        with a ``pending`` of 0."""
        self.pushed[worker] = (sent, delivered, dropped, 0)
        self._fresh = True

    def candidate(self) -> bool:
        """Whether the pushed snapshots say "probably done" and no wave
        has judged them yet: time to :meth:`open_wave`."""
        pushed = self.pushed
        return (
            self._fresh
            and len(pushed) == self.n_workers
            and residual(pushed) == 0
        )

    def open_wave(self) -> None:
        """Freeze the candidate as set 1; every :meth:`answer` from here
        on was asked for after it was complete."""
        self._first = dict(self.pushed)
        self._wave = {}
        self._fresh = False

    def answer(
        self, worker: int, sent: int, delivered: int, dropped: int, pending: int
    ) -> None:
        """``worker``'s snapshot for the open wave."""
        self._wave[worker] = (sent, delivered, dropped, pending)

    def quiet(self) -> bool:
        """Whether the completed wave confirms the candidate it was
        opened on (which :meth:`candidate` found conserved and idle)."""
        return len(self._wave) == self.n_workers and self._wave == self._first
