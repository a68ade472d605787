"""SendQueue watermark semantics: hysteresis, ordering, control bypass."""

import asyncio

import pytest

from repro.errors import ConfigurationError
from repro.live.wire import SendQueue


def run(coroutine):
    return asyncio.run(coroutine)


def test_watermarks_are_validated():
    with pytest.raises(ConfigurationError):
        SendQueue(high=0)
    with pytest.raises(ConfigurationError):
        SendQueue(high=4, low=4)
    with pytest.raises(ConfigurationError):
        SendQueue(high=4, low=-1)


def test_fifo_order_preserved():
    async def scenario():
        queue = SendQueue(high=8, low=2)
        for i in range(5):
            await queue.put(i)
        return [await queue.get() for _ in range(5)]

    assert run(scenario()) == [0, 1, 2, 3, 4]


def test_put_blocks_at_high_and_resumes_below_low():
    async def scenario():
        queue = SendQueue(high=3, low=1)
        for i in range(3):
            await queue.put(i)

        blocked = asyncio.create_task(queue.put(99))
        await asyncio.sleep(0)
        assert not blocked.done()  # producer stalled at the watermark
        assert queue.stalls == 1

        await queue.get()  # depth 2: still above low, still stalled
        await asyncio.sleep(0)
        assert not blocked.done()

        await queue.get()  # depth 1 == low: hysteresis releases
        await blocked
        return len(queue)

    assert run(scenario()) == 2


def test_put_nowait_jumps_backpressure():
    async def scenario():
        queue = SendQueue(high=2, low=0)
        await queue.put("a")
        await queue.put("b")
        queue.put_nowait("control")  # never blocks, even when full
        return len(queue)

    assert run(scenario()) == 3


def test_get_waits_for_an_item():
    async def scenario():
        queue = SendQueue()
        getter = asyncio.create_task(queue.get())
        await asyncio.sleep(0)
        assert not getter.done()
        await queue.put("late")
        return await getter

    assert run(scenario()) == "late"

