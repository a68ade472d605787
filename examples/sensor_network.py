"""Real-time sensor dissemination with the low-level API.

The paper's introduction also motivates real-time weather/sensor data.
This example skips the config-driven builder and composes the library's
pieces directly: a custom physical network, hand-rolled temperature
traces (slow drift, occasional fronts), explicit per-station coherency
requirements (forecasting centres need 0.1 degC, dashboards 1.0 degC),
a LeLA-constructed dissemination graph, and the event-driven engine.

Run:
    python examples/sensor_network.py
"""

import numpy as np

from repro.core.interests import InterestProfile
from repro.core.items import DataItem
from repro.core.lela import build_d3g
from repro.engine import SCALE_PRESETS
from repro.engine.builder import SimulationSetup
from repro.engine.simulation import make_simulation
from repro.network.model import build_network
from repro.traces.model import Trace
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace

N_SENSORS = 4
N_STATIONS = 12


def make_temperature_trace(name: str, rng: np.random.Generator) -> Trace:
    """A temperature-like series: tenth-degree ticks, slow mean drift."""
    config = SyntheticTraceConfig(
        n_samples=1_500,
        interval_s=2.0,          # sensors report every two seconds
        start_price=18.0,        # degrees Celsius (any positive level works)
        volatility=0.08,
        reversion=0.02,
        tick=0.1,
        change_probability=0.5,
    )
    return generate_trace(name, config, rng)


def main() -> None:
    rng = np.random.default_rng(42)
    network = build_network(
        n_repositories=N_STATIONS, n_routers=30, rng=np.random.default_rng(7)
    )

    items = [DataItem(item_id=i, name=f"SENSOR{i}") for i in range(N_SENSORS)]
    traces = {
        item.item_id: make_temperature_trace(item.name, rng) for item in items
    }

    # Stations 1-4 are forecasting centres (tight tolerances, all sensors);
    # the rest are public dashboards (loose tolerances, a sensor subset).
    profiles = []
    for station in network.repository_ids:
        station = int(station)
        if station <= 4:
            reqs = {item.item_id: 0.1 for item in items}
        else:
            wanted = rng.choice(N_SENSORS, size=2, replace=False)
            reqs = {int(i): 1.0 for i in wanted}
        profiles.append(InterestProfile(repository=station, requirements=reqs))

    graph = build_d3g(
        profiles,
        source=network.source,
        comm_delay_ms=network.delay_ms,
        offered_degree=3,
        rng=np.random.default_rng(0),
    )

    config = SCALE_PRESETS["tiny"].with_(
        n_repositories=N_STATIONS,
        n_items=N_SENSORS,
        policy="distributed",
        offered_degree=3,
    )
    setup = SimulationSetup(
        config=config,
        network=network,
        items=items,
        traces=traces,
        profiles={p.repository: p for p in profiles},
        graph=graph,
        effective_degree=3,
        avg_comm_delay_ms=network.mean_repo_delay_ms(),
    )
    result = make_simulation(setup).run()

    print("Sensor dissemination network")
    print("-" * 52)
    stats = graph.stats()
    print(f"stations={N_STATIONS}  sensors={N_SENSORS}  "
          f"d3g levels={stats.n_levels}  max depth={stats.max_depth}")
    print(f"system loss of fidelity: {result.loss_of_fidelity:.3f} %")
    print()
    print(f"{'station':>8} {'kind':<12} {'level':>6} {'loss %':>8}")
    for p in profiles:
        kind = "forecast" if p.repository <= 4 else "dashboard"
        level = graph.nodes[p.repository].level
        loss = result.per_repository_loss[p.repository]
        print(f"{p.repository:>8} {kind:<12} {level:>6} {loss:>8.3f}")
    print()
    print("Forecast centres sit closer to the source (their tolerances are")
    print("more stringent -- Eq. (1) forces stringent consumers upstream).")


if __name__ == "__main__":
    main()
