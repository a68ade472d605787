"""The fleet's quiescence decision, under every schedule a model can make.

:class:`~repro.fleet.quiescence.QuiescenceDetector` sees only what the
supervisor sees: snapshots the workers pushed when they ran out of
local work, and the replies to the waves it asked for.  ``_Fleet`` below
is the part it cannot see -- workers with monotone ``sent`` /
``delivered`` / ``dropped`` counters, a due list each, FIFO channels
between them (a link's queue and the wire as one) and the anti-entropy
sessions a reconnect opens -- and its moves interleave with the
detector's inputs freely: a worker may be idle and not have said so
yet, a pushed snapshot may be stale by the time a wave opens, rows may
move between two replies of one wave.

A reconnect's ``Hello`` opens a session and moves no counter.  Ahead of
a row it is covered by the row; on its own (a heartbeat rewrote a
severed link) the detector can only see the session through the
``pending`` of a wave reply, so the model lets a lone ``Hello`` land on
a worker any time up to that worker's reply to the wave in progress and
not after: what is still on its way then is not waited for, which
``docs/architecture/fleet.md`` says of the real fleet too.

Safety: when the detector says quiet, the model is drained -- no row
in a channel or a due list, no session open.  It is checked twice:
by a Hypothesis state machine over up to four workers (wide, random),
and by walking *every* schedule of a two-worker fleet that sends at
most five rows (narrow, complete).  The false alarms the rule exists
for take a dozen particular steps, which random search does not find
and the walk cannot miss, so it is the walk that two detectors with one
half of the rule removed each must fail.
"""

from __future__ import annotations

import copy
import itertools

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from example_counts import examples
from repro.fleet.quiescence import QuiescenceDetector, residual


class _Fleet:
    """N workers, the channels between them, and the detector watching.

    A row is only ever counted, so due lists and channels are counts.
    The source replay is through before the first snapshot: ``replay``
    lists the ``(src, dst)`` of what it left on due lists and in
    channels, already counted as sent.
    """

    def __init__(self, detector_class, n_workers: int, replay) -> None:
        n = self.n = n_workers
        self.detector = detector_class(n)
        self.sent, self.delivered, self.dropped = [0] * n, [0] * n, [0] * n
        self.due, self.sessions = [0] * n, [0] * n
        self.channels = {
            (src, dst): 0 for src in range(n) for dst in range(n) if src != dst
        }
        self.unanswered: set[int] = set()
        #: The detector said quiet (over a drained model): ``finish`` is out.
        self.over = False
        for src, dst in replay:
            self._send(src, dst)

    def _send(self, src: int, dst: int) -> None:
        self.sent[src] += 1
        if src == dst:
            self.due[dst] += 1
        else:
            self.channels[src, dst] += 1

    def busy(self) -> list[int]:
        return [w for w in range(self.n) if self.due[w]]

    def loaded(self) -> list[tuple[int, int]]:
        return [pair for pair, rows in self.channels.items() if rows]

    def in_session(self) -> list[int]:
        return [w for w in range(self.n) if self.sessions[w]]

    def hears_hello(self) -> list[int]:
        """Where a ``Hello`` on its own may still land (module docstring)."""
        if self.over:
            return []
        return sorted(self.unanswered) if self.unanswered else list(range(self.n))

    def idle(self, w: int) -> bool:
        return not self.due[w] and not self.sessions[w]

    def drained(self) -> bool:
        return not self.loaded() and all(map(self.idle, range(self.n)))

    def snapshot(self, w: int) -> tuple[int, int, int, int]:
        pending = self.due[w] + self.sessions[w]
        return self.sent[w], self.delivered[w], self.dropped[w], pending

    # -- what the workers and the wire do --

    def process_one_due_row(self, w: int, emits) -> None:
        self.due[w] -= 1
        for dst in emits:
            self._send(w, dst)
        self.delivered[w] += 1

    def move_one_row_across(self, src: int, dst: int, reconnected: bool) -> None:
        self.channels[src, dst] -= 1
        if reconnected:  # the Hello ahead of the row opened a session
            self.sessions[dst] += 1
        self.due[dst] += 1

    def hello_alone(self, w: int) -> None:
        self.sessions[w] += 1

    def drop_one_row(self, src: int, dst: int) -> None:
        self.channels[src, dst] -= 1
        self.dropped[src] += 1

    def finish_one_session(self, w: int) -> None:
        self.sessions[w] -= 1

    # -- what the supervisor hears and asks --

    def push_idle(self, w: int) -> None:
        self.detector.push(w, *self.snapshot(w)[:3])

    def open_wave(self) -> None:
        self.detector.open_wave()
        self.unanswered = set(range(self.n))

    def answer_one_share_of_the_wave(self, w: int) -> None:
        self.unanswered.discard(w)
        self.detector.answer(w, *self.snapshot(w))

    def may_open_wave(self) -> bool:
        return not self.unanswered and self.detector.candidate()

    def check(self) -> None:
        if not self.unanswered and self.detector.quiet():
            assert self.drained(), (
                "the detector said quiet with work left: "
                f"channels {self.loaded()}, due {self.due}, sessions {self.sessions}"
            )
            self.over = True


_index = st.integers(min_value=0, max_value=11)


def _pick(options: list, which: int):
    return options[which % len(options)]


class QuiescenceMachine(RuleBasedStateMachine):
    """``_Fleet``'s moves as rules; ``which`` picks among the workers or
    channels the move applies to right now."""

    fleet: _Fleet | None = None

    @initialize(
        n_workers=st.integers(min_value=1, max_value=4),
        replay=st.lists(st.tuples(_index, _index), max_size=6),
    )
    def replayed(self, n_workers, replay):
        self.fleet = _Fleet(
            QuiescenceDetector,
            n_workers,
            [(src % n_workers, dst % n_workers) for src, dst in replay],
        )

    @precondition(lambda self: self.fleet.busy())
    @rule(which=_index, emits=st.lists(_index, max_size=3))
    def process_one_due_row(self, which, emits):
        fleet = self.fleet
        fleet.process_one_due_row(
            _pick(fleet.busy(), which), [dst % fleet.n for dst in emits]
        )

    @precondition(lambda self: self.fleet.loaded())
    @rule(which=_index, reconnected=st.booleans())
    def move_one_row_across(self, which, reconnected):
        self.fleet.move_one_row_across(*_pick(self.fleet.loaded(), which), reconnected)

    @precondition(lambda self: self.fleet.hears_hello())
    @rule(which=_index)
    def hello_alone(self, which):
        self.fleet.hello_alone(_pick(self.fleet.hears_hello(), which))

    @precondition(lambda self: self.fleet.loaded())
    @rule(which=_index)
    def drop_one_row(self, which):
        self.fleet.drop_one_row(*_pick(self.fleet.loaded(), which))

    @precondition(lambda self: self.fleet.in_session())
    @rule(which=_index)
    def finish_one_session(self, which):
        self.fleet.finish_one_session(_pick(self.fleet.in_session(), which))

    @rule(which=_index)
    def push_idle(self, which):
        w = which % self.fleet.n
        if self.fleet.idle(w):
            self.fleet.push_idle(w)

    @precondition(lambda self: self.fleet.may_open_wave())
    @rule()
    def open_wave(self):
        self.fleet.open_wave()

    @precondition(lambda self: self.fleet.unanswered)
    @rule(which=_index)
    def answer_one_share_of_the_wave(self, which):
        self.fleet.answer_one_share_of_the_wave(
            _pick(sorted(self.fleet.unanswered), which)
        )

    @invariant()
    def quiet_means_drained(self):
        if self.fleet is not None:
            self.fleet.check()


TestQuiescenceMachine = QuiescenceMachine.TestCase
TestQuiescenceMachine.settings = settings(
    max_examples=examples(200), stateful_step_count=40, deadline=None
)


# -- the narrow, complete check --

#: The walk's scope: rows ever sent, rows one delivery may emit, and
#: sessions ever opened.
_MAX_SENT, _MAX_EMITS, _MAX_SESSIONS = 5, 2, 1


def _moves(fleet: _Fleet, sessions_opened: int):
    """Every move ``fleet`` can make next, as ``(name, arguments)``."""
    workers = range(fleet.n)
    budget = min(_MAX_EMITS, _MAX_SENT - sum(fleet.sent))
    for w in fleet.busy():
        for size in range(budget + 1):
            for emits in itertools.combinations_with_replacement(workers, size):
                yield "process_one_due_row", (w, emits)
    for src, dst in fleet.loaded():
        yield "move_one_row_across", (src, dst, False)
        if sessions_opened < _MAX_SESSIONS:
            yield "move_one_row_across", (src, dst, True)
        yield "drop_one_row", (src, dst)
    if sessions_opened < _MAX_SESSIONS:
        for w in fleet.hears_hello():
            yield "hello_alone", (w,)
    for w in fleet.in_session():
        yield "finish_one_session", (w,)
    for w in workers:
        # A push that repeats the last one tells the detector nothing.
        if fleet.idle(w) and fleet.detector.pushed.get(w) != fleet.snapshot(w):
            yield "push_idle", (w,)
    if fleet.may_open_wave():
        yield "open_wave", ()
    for w in sorted(fleet.unanswered):
        yield "answer_one_share_of_the_wave", (w,)


def _state(fleet: _Fleet, sessions_opened: int) -> tuple:
    detector = fleet.detector
    return (
        *map(tuple, (fleet.sent, fleet.delivered, fleet.dropped, fleet.due)),
        tuple(fleet.sessions), sessions_opened, tuple(fleet.channels.values()),
        tuple(sorted(fleet.unanswered)), fleet.over, detector._fresh,
        *(
            tuple(sorted(snapshots.items()))
            for snapshots in (detector.pushed, detector._first, detector._wave)
        ),
    )


def _walk(detector_class, replay) -> tuple[int, list | None]:
    """Every schedule of a two-worker fleet within the scope above:
    the states visited, and the first schedule (if any) that ends with
    the detector saying quiet over work left."""
    start = _Fleet(detector_class, 2, replay)
    seen = {_state(start, 0)}
    stack = [(start, 0, [])]
    while stack:
        fleet, sessions_opened, schedule = stack.pop()
        for name, arguments in _moves(fleet, sessions_opened):
            after = copy.deepcopy(fleet)
            getattr(after, name)(*arguments)
            opened = sessions_opened + (
                name == "hello_alone"
                or (name == "move_one_row_across" and arguments[2])
            )
            step = schedule + [(name, arguments)]
            try:
                after.check()
            except AssertionError:
                return len(seen), step
            state = _state(after, opened)
            if state not in seen:
                seen.add(state)
                stack.append((after, opened, step))
    return len(seen), None


_REPLAYS = [[(0, 1)], [(1, 0), (0, 0)]]


@pytest.mark.parametrize("replay", _REPLAYS)
def test_no_schedule_in_scope_ends_quiet_over_work_left(replay):
    states, counter_example = _walk(QuiescenceDetector, replay)
    assert counter_example is None, counter_example
    assert states > 10_000  # the walk did go somewhere


class _SingleSet(QuiescenceDetector):
    """Mutation: one conserved, idle set is taken for proof -- the wave
    is believed on its own, never held against the set before it."""

    def quiet(self) -> bool:
        wave = self._wave
        return (
            len(wave) == self.n_workers
            and residual(wave) == 0
            and not any(s[3] for s in wave.values())
        )


class _UnfrozenFirstSet(QuiescenceDetector):
    """Mutation: the wave is compared with the pushed snapshots as they
    stand when it ends, so part of "set 1" may be younger than the
    wave's own first reply."""

    def open_wave(self) -> None:
        super().open_wave()
        self._first = self.pushed  # the live dict, not its copy


@pytest.mark.parametrize("mutant", [_SingleSet, _UnfrozenFirstSet])
def test_each_half_of_the_rule_removed_fails_the_walk(mutant):
    _states, counter_example = _walk(mutant, _REPLAYS[0])
    assert counter_example is not None
    # A false alarm needs a stale push and a wave, whatever the mutant.
    moves = [name for name, _arguments in counter_example]
    assert moves.count("push_idle") >= 2 and "open_wave" in moves


class _CountersOnly(QuiescenceDetector):
    """Mutation: the wave's counters are held against the candidate's,
    its ``pending`` is not read."""

    def quiet(self) -> bool:
        return len(self._wave) == self.n_workers and all(
            self._wave[w][:3] == first[:3] for w, first in self._first.items()
        )


def test_a_wave_that_ignores_pending_ends_over_an_open_session():
    _states, counter_example = _walk(_CountersOnly, _REPLAYS[0])
    assert counter_example is not None
    # No counter tells of a session: a ``Hello`` opened one, nobody saw.
    assert any(
        name == "hello_alone" or (name == "move_one_row_across" and arguments[2])
        for name, arguments in counter_example
    )


def test_once_drained_one_idle_and_one_wave_suffice():
    """Liveness, as an example: worker 1 was the last one active; its
    one pushed snapshot completes the candidate, and the first wave
    confirms it."""
    detector = QuiescenceDetector(2)
    detector.push(0, 7, 4, 0)
    assert not detector.candidate()  # worker 1 has not spoken
    detector.push(1, 2, 5, 0)
    assert detector.candidate()
    detector.open_wave()
    assert not detector.candidate()  # judged; only news reopens it
    detector.answer(0, 7, 4, 0, 0)
    assert not detector.quiet()  # the wave is not complete
    detector.answer(1, 2, 5, 0, 0)
    assert detector.quiet()


def test_a_refuted_candidate_waits_for_news():
    detector = QuiescenceDetector(2)
    detector.push(0, 3, 1, 0)
    detector.push(1, 0, 2, 0)
    assert detector.candidate()
    detector.open_wave()
    detector.answer(0, 3, 1, 0, 0)
    detector.answer(1, 2, 3, 0, 0)  # worker 1 moved since it pushed
    assert not detector.quiet()
    assert not detector.candidate()  # no second wave on the same news
    detector.push(0, 3, 2, 0)  # not conserved against worker 1's old push
    assert not detector.candidate()
    detector.push(1, 2, 3, 0)
    assert detector.candidate()


def test_a_session_opened_since_the_push_refutes_the_candidate():
    """A lone ``Hello`` opened a session on worker 1 after it pushed: no
    counter moved, only the wave reply's ``pending`` says so."""
    detector = QuiescenceDetector(2)
    detector.push(0, 3, 1, 0)
    detector.push(1, 0, 2, 0)
    detector.open_wave()
    detector.answer(0, 3, 1, 0, 0)
    detector.answer(1, 0, 2, 0, 1)
    assert not detector.quiet()
