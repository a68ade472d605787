"""Unit tests for the single-server FIFO station."""

import pytest

from repro.errors import SimulationError
from repro.sim.queueing import FifoStation


def test_idle_station_serves_immediately():
    station = FifoStation()
    assert station.submit(10.0, 0.5) == 10.5


def test_busy_station_queues_work():
    station = FifoStation()
    station.submit(0.0, 1.0)  # busy until 1.0
    assert station.submit(0.2, 1.0) == 2.0  # waits 0.8, then serves 1.0
    assert station.submit(0.3, 1.0) == 3.0


def test_station_goes_idle_between_bursts():
    station = FifoStation()
    station.submit(0.0, 1.0)
    # Arrives long after the backlog drained: no waiting.
    assert station.submit(10.0, 1.0) == 11.0


def test_zero_service_time_passes_through():
    station = FifoStation()
    assert station.submit(5.0, 0.0) == 5.0
    assert station.submit(5.0, 1.0) == 6.0  # no backlog left behind


def test_negative_arrival_rejected():
    station = FifoStation()
    with pytest.raises(SimulationError):
        station.submit(-1.0, 1.0)


def test_negative_service_rejected():
    station = FifoStation()
    with pytest.raises(SimulationError):
        station.submit(1.0, -0.1)


def test_nan_arrival_rejected():
    station = FifoStation()
    with pytest.raises(SimulationError, match="arrival must be non-negative"):
        station.submit(float("nan"), 1.0)
    assert station.submit(0.0, 1.0) == 1.0  # nothing queued


def test_nan_service_rejected():
    # A NaN service time would poison busy_until, and with it every
    # completion time the station hands out after it.
    station = FifoStation()
    with pytest.raises(SimulationError, match="service_time must be non-negative"):
        station.submit(1.0, float("nan"))
    assert station.submit(0.0, 1.0) == 1.0  # nothing queued


def test_jobs_and_busy_time_accounting():
    station = FifoStation()
    assert station.submit(0.0, 1.0) == 1.0
    assert station.submit(0.0, 2.0) == 3.0  # busy time of both jobs adds up
    assert station.submit(3.0, 1.0) == 4.0  # and none is left over


def test_saturation_grows_backlog_linearly():
    # Work arrives faster than it can be served: the completion times of
    # successive jobs must grow without bound -- this is the queueing
    # behaviour behind the paper's source-overload results.
    station = FifoStation()
    completions = [station.submit(float(t), 2.0) for t in range(10)]
    waits = [c - t - 2.0 for c, t in zip(completions, range(10))]
    assert waits == [float(i) for i in range(10)]
