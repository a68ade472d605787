"""``sim_deep`` and ``sim_fanout``: one engine, used two opposite ways.

``sim_deep`` is the paper's base-case shape (100 repositories, 20 items,
degree 4): per-node arrays are tiny, so the event heap and per-call
overhead do the work.  ``sim_fanout`` hangs 2000 modeled clients off
each of 300 repositories: wide arrays do the work and the heap little.
Both run ``kernel="auto"`` under the distributed policy.

Sizing: the issue's sizes gave 9-10 s per repetition, which leaves room
for one or two repetitions per 15 s run.  The traces are cut (2500 -> 800 and
2000 -> 200 samples) so a repetition takes 2-3 s and each run reports
the median of at least three; per-event and per-element costs, and the
whole of set-up, are unchanged by the cut.  ``sim_fanout`` also doubles
items and clients (8 -> 16, 1000 -> 2000): each (repository, item)
client array stays ~250 wide, but twice as many of them halves how much
the message count -- and with it the run time -- swings from seed to
seed, which is what the driver's ten-seed spread measures.
"""

from __future__ import annotations

from dataclasses import replace

from benchmarks.ledger import probes
from benchmarks.ledger.harness import (
    SETUP_REPS,
    Outcome,
    ReferenceClock,
    median,
    peak_rss_mb,
    repeat_for,
    timed,
)
from benchmarks.ledger.spans import Tracer

from repro.core.fidelity import FidelityAccumulator, loss_of_fidelity
from repro.core.interests import generate_interests
from repro.core.items import CoherencyMix, DataItem
from repro.core.lela import build_d3g
from repro.core.preference import get_preference_function
from repro.engine import (
    SCALE_PRESETS,
    SimulationConfig,
    SimulationSetup,
    build_setup,
    make_simulation,
)
from repro.network.delays import ParetoDelayModel
from repro.network.routing import build_routing
from repro.network.topology import generate_topology
from repro.sim.rng import RandomStreams
from repro.traces.schedule import UpdateSchedule

MIN_REPS = 3


def scaled(value: int, shrink: float, floor: int) -> int:
    return max(floor, int(value * shrink))


def sim_deep_config(seed: int, shrink: float = 1.0) -> SimulationConfig:
    return SCALE_PRESETS["paper"].with_(
        seed=seed,
        n_repositories=scaled(100, shrink, 10),
        n_routers=scaled(600, shrink, 30),
        n_items=scaled(20, shrink, 4),
        trace_samples=scaled(800, shrink, 120),
    )


def sim_fanout_config(seed: int, shrink: float = 1.0) -> SimulationConfig:
    return SCALE_PRESETS["scalability"].with_(
        seed=seed,
        n_repositories=scaled(300, shrink, 10),
        n_routers=scaled(100, shrink, 30),
        n_items=scaled(16, shrink, 4),
        clients_per_repository=scaled(2000, shrink, 50),
        trace_samples=scaled(200, shrink, 120),
    )


def conserved(result) -> bool:
    """Every message a repository was sent was delivered or dropped."""
    counters = result.counters
    return counters.deliveries + counters.drops == counters.messages


def graph_edges(graph) -> int:
    """Service edges of the ``d3g``: one per (parent, child, item)."""
    return sum(
        len(items) for state in graph.nodes.values() for items in state.children.values()
    )


def measure(config: SimulationConfig, seconds: float) -> Outcome:
    """The untraced pass: set-up, then ``make_simulation(setup).run()`` repeated."""
    clock = ReferenceClock()
    setup_seconds = []
    for _ in range(SETUP_REPS):  # one setup alive at a time: peak RSS is a metric
        setup, seconds_taken = clock.timed(lambda: build_setup(config))
        setup_seconds.append(seconds_taken)
    runs = repeat_for(
        lambda: clock.timed(lambda: make_simulation(setup).run()), seconds, MIN_REPS
    )
    first = runs[0][0]
    run_s = median(seconds for _result, seconds in runs)
    updates = len(setup.update_schedule)

    outcome = Outcome(attempted=len(runs), notes=[clock.note()])
    for index, (result, _seconds) in enumerate(runs):
        if not conserved(result) or result != first:
            outcome.failed += 1
            outcome.problems.append(
                f"repetition {index} broke message conservation or differs "
                "from repetition 0"
            )
    outcome.metrics = {
        "setup_s": median(setup_seconds),
        "run_s": run_s,
        "updates_per_s": updates / run_s,
        "messages_per_s": first.messages / run_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    return outcome


def decompose(
    tracer: Tracer, config: SimulationConfig, scalar: bool, outcome: Outcome
) -> tuple[dict, SimulationSetup]:
    """Time every layer one simulated point passes through, from outside.

    Set-up is rebuilt piece by piece with the builder's own public
    ingredients and named random streams, then built whole and recycled
    once; the run is timed on the vectorized kernel (and the scalar one
    when ``scalar``), and every (repository, item) pair is re-scored
    from the delivery log.  Each piece is checked against what
    ``build_setup`` and the run themselves produced, so the decomposition
    cannot drift into measuring different work.
    """
    streams = RandomStreams(config.seed)
    delay_model = ParetoDelayModel(
        mean_ms=config.link_delay_mean_ms,
        min_ms=min(config.link_delay_min_ms, config.link_delay_mean_ms / 2.0),
    )
    topology, _ = tracer.call(
        "network.topology",
        lambda: generate_topology(
            n_repositories=config.n_repositories,
            n_routers=config.n_routers,
            rng=streams.stream("topology"),
            delay_model=delay_model,
            avg_degree=config.avg_degree,
        ),
    )
    tracer.call("network.routing", lambda: build_routing(topology))
    items = [DataItem(item_id=i, name=f"ITEM{i:03d}") for i in range(config.n_items)]
    trace_list, _ = tracer.call(
        "traces.generate",
        lambda: list(
            config.workload.make_traces(
                config.n_items,
                rng_factory=lambda i: streams.spawn("traces", i),
                n_samples=config.trace_samples,
            )
        ),
    )
    schedule, _ = tracer.call(
        "traces.schedule", lambda: UpdateSchedule.from_traces(dict(enumerate(trace_list)))
    )

    setup, _ = tracer.call("engine.build", lambda: build_setup(config))
    network = setup.network
    profiles, _ = tracer.call(
        "core.interests",
        lambda: generate_interests(
            repositories=setup.repositories,
            items=items,
            mix=CoherencyMix(t_percent=config.t_percent),
            rng=streams.stream("interests"),
            subscription_probability=config.subscription_probability,
        ),
    )
    graph, _ = tracer.call(
        "core.lela",
        lambda: build_d3g(
            profiles=[profiles[repo] for repo in sorted(profiles)],
            source=network.source,
            comm_delay_ms=network.delay_ms,
            offered_degree=setup.effective_degree,
            preference=get_preference_function(config.preference),
            p_percent=config.p_percent,
            rng=streams.stream("lela"),
        ),
    )
    tracer.call(
        "engine.build.recycled",
        lambda: build_setup(
            config.with_(offered_degree=config.offered_degree + 1), base=setup
        ),
    )
    outcome.check(
        topology.n_nodes == network.topology.n_nodes
        and len(schedule) == len(setup.update_schedule)
        and graph_edges(graph) == graph_edges(setup.graph),
        "layer-by-layer set-up differs from build_setup's",
    )

    def run(kernel: str):
        simulation = make_simulation(replace(setup, config=config.with_(kernel=kernel)))
        return simulation, simulation.run()

    (simulation, result), vectorized_s = tracer.call(
        "engine.vectorized.run", lambda: run("vectorized")
    )
    outcome.check(conserved(result), "vectorized run broke message conservation")
    metrics = {
        "loss_of_fidelity_pct": result.loss_of_fidelity,
        "messages_per_update": result.messages / len(schedule),
        "engine.vectorized.us_per_event": vectorized_s / result.events_processed * 1e6,
        "engine.events": result.events_processed,
    }
    if scalar:
        (_, oracle), scalar_s = tracer.call("engine.scalar.run", lambda: run("scalar"))
        outcome.check(oracle == result, "scalar and vectorized results differ")
        chosen = type(make_simulation(setup)).__name__
        auto_s = vectorized_s if chosen == "VectorizedSimulation" else scalar_s
        metrics["engine.scalar.us_per_event"] = scalar_s / oracle.events_processed * 1e6
        metrics["engine.auto_vs_best_ratio"] = auto_s / min(vectorized_s, scalar_s)

    pairs = [
        (repo, item_id, tolerance)
        for repo, profile in setup.profiles.items()
        for item_id, tolerance in profile.requirements.items()
    ]
    logs, _ = tracer.call(
        "engine.delivery_log",
        lambda: [simulation.delivery_log(repo, item_id) for repo, item_id, _c in pairs],
    )

    def rescore() -> float:
        accumulator = FidelityAccumulator()
        for (repo, item_id, tolerance), log in zip(pairs, logs):
            trace = setup.traces[item_id]
            accumulator.add(
                repo,
                item_id,
                loss_of_fidelity(
                    trace.times,
                    trace.values,
                    [entry[0] for entry in log],
                    [entry[1] for entry in log],
                    tolerance,
                    t_start=float(trace.times[0]),
                    t_end=float(trace.times[-1]),
                ),
            )
        return accumulator.system_loss()

    rescored, fidelity_s = tracer.call("core.fidelity", rescore)
    outcome.check(
        abs(rescored - result.loss_of_fidelity) < 1e-9,
        f"re-scored loss {rescored!r} != the run's {result.loss_of_fidelity!r}",
    )

    metrics.update(
        {
            "network.nodes": topology.n_nodes,
            "traces.updates": len(schedule),
            "core.lela.edges": graph_edges(graph),
            "core.fidelity.pairs": len(pairs),
            "engine.drain_s": vectorized_s - fidelity_s,
        }
    )
    return metrics, setup


#: Spans whose self time is reported as the per-layer metric ``<span>_s``.
POINT_LAYERS = (
    "network.topology",
    "network.routing",
    "traces.generate",
    "traces.schedule",
    "core.interests",
    "core.lela",
    "engine.build",
    "engine.build.recycled",
    "engine.vectorized.run",
    "engine.scalar.run",
    "core.fidelity",
)


def trace(
    config: SimulationConfig, tracer: Tracer, deep: bool, shrink: float = 1.0
) -> Outcome:
    """The traced pass: this workload's probes, then the layer decomposition."""
    # Probes first: they allocate heavily, and the collector gets slower
    # once a full-size setup and its results are alive.
    if deep:
        ratio, spans = probes.obs_trace_overhead(shrink)
        probed = {
            "sim.eventkernel.ns_per_event": probes.eventkernel_ns_per_event(shrink),
            "sim.batchkernel.ns_per_unit": probes.batchkernel_ns_per_unit(shrink),
            "core.filtering.decide_ns": probes.filtering_decide_ns(shrink),
            "core.filtering.many4_ns": probes.filtering_many_ns(4, shrink),
            "obs.trace.overhead_ratio": ratio,
            "obs.trace.spans": spans,
        }
    else:
        probed = {"core.filtering.many1000_ns": probes.filtering_many_ns(1000, shrink)}
    outcome = Outcome(attempted=1)
    with tracer.span("ledger.harness"):
        outcome.metrics, setup = decompose(tracer, config, scalar=deep, outcome=outcome)
        # The same measured unit once inside a span and once bare: the
        # ratio is what the benchmark's own spans cost.
        _, spanned_s = tracer.call("engine.auto.run", lambda: make_simulation(setup).run())
    _, bare_s = timed(lambda: make_simulation(setup).run())
    outcome.metrics.update(probed)
    outcome.metrics.update(tracer.layer_seconds(POINT_LAYERS))
    outcome.metrics["ledger.trace_overhead_ratio"] = spanned_s / bare_s
    outcome.failed = int(not outcome.correct)
    return outcome
