"""SendQueue semantics: high-watermark stalls, backlog drain, ordering,
control bypass."""

import asyncio

import pytest

from repro.errors import ConfigurationError
from repro.live.wire import SendQueue


def run(coroutine):
    return asyncio.run(coroutine)


def test_watermarks_are_validated():
    with pytest.raises(ConfigurationError):
        SendQueue(high=0)
    assert SendQueue(high=1).high == 1


def test_fifo_order_preserved():
    async def scenario():
        queue = SendQueue(high=8)
        for i in range(5):
            await queue.put(i)
        first = await queue.take()
        await queue.put(5)
        queue.put_nowait(6)
        return first, await queue.take()

    assert run(scenario()) == ([0, 1, 2, 3, 4], [5, 6])


def test_put_blocks_at_high_and_resumes_when_the_backlog_is_taken():
    async def scenario():
        queue = SendQueue(high=3)
        for i in range(3):
            await queue.put(i)

        blocked = asyncio.create_task(queue.put(99))
        await asyncio.sleep(0)
        assert not blocked.done()  # producer stalled at the watermark
        assert queue.stalls == 1

        assert await queue.take() == [0, 1, 2]  # the pump's next write
        await blocked
        return len(queue), await queue.take()

    assert run(scenario()) == (1, [99])


def test_put_nowait_jumps_backpressure():
    async def scenario():
        queue = SendQueue(high=2)
        await queue.put("a")
        await queue.put("b")
        queue.put_nowait("control")  # never blocks, even when full
        return len(queue)

    assert run(scenario()) == 3


def test_take_waits_for_an_item():
    async def scenario():
        queue = SendQueue()
        taker = asyncio.create_task(queue.take())
        await asyncio.sleep(0)
        assert not taker.done()
        await queue.put("late")
        return await taker, len(queue)

    assert run(scenario()) == (["late"], 0)
