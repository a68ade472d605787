"""The deterministic in-process live network vs the simulator."""

import dataclasses
import math

import pytest

from repro.core.dissemination.filtering import Staircase
from repro.core.metrics import CostCounters
from repro.engine.adaptive import AdaptivePolicy
from repro.engine.churn import schedule_for_config
from repro.engine.config import SCALE_PRESETS, SimulationConfig
from repro.engine.failures import FailureEvent, FailureSchedule
from repro.engine.simulation import run_simulation
from repro.errors import ConfigurationError
from repro.experiments.cache import fingerprint
from repro.experiments.live_crosscheck import ADAPTIVE_BASE
from repro.live import harness
from repro.live.harness import (
    build_live_network,
    check_duration,
    check_pacing,
    run_live,
)
from repro.live.nodes import RepositoryNode
from repro.errors import SimulationError
from repro.obs.trace import TraceRecorder

pytestmark = pytest.mark.live

#: Small enough for sub-second runs, large enough to queue and filter.
CONFIG = SimulationConfig(
    n_repositories=12, n_routers=40, n_items=4, trace_samples=300
)


def _result_digest(result):
    """A content digest over everything a run produced."""
    return fingerprint(
        (
            result.loss_of_fidelity,
            tuple(sorted(result.per_repository_loss.items())),
            result.counters,
            result.sent,
            result.delivered,
            result.dropped,
            tuple(sorted(result.extras["per_pair_loss"].items())),
        )
    )


def test_inprocess_run_is_bit_deterministic():
    first = run_live(CONFIG)
    second = run_live(CONFIG)
    assert _result_digest(first) == _result_digest(second)


def test_inprocess_jitter_is_seeded_and_deterministic():
    first = run_live(CONFIG, jitter_ms=5.0)
    second = run_live(CONFIG, jitter_ms=5.0)
    assert _result_digest(first) == _result_digest(second)
    # And jitter genuinely perturbs the run relative to no jitter.
    assert _result_digest(first) != _result_digest(run_live(CONFIG))


@pytest.mark.parametrize(
    "policy", ["distributed", "centralized", "flooding", "eq3_only"]
)
def test_live_matches_simulator_exactly(policy):
    """Same d3g, same filter, same queueing: sim and live agree bit
    for bit on fidelity, per-pair losses and every counter."""
    config = CONFIG.with_(policy=policy)
    sim = run_simulation(config)
    live = run_live(config)
    assert live.loss_of_fidelity == sim.loss_of_fidelity
    assert live.per_repository_loss == sim.per_repository_loss
    assert live.counters.messages == sim.counters.messages
    assert live.counters.source_checks == sim.counters.source_checks
    assert live.counters.repository_checks == sim.counters.repository_checks
    assert live.counters.per_node_messages == sim.counters.per_node_messages
    assert live.extras["per_pair_loss"] == sim.extras["per_pair_loss"]


def test_message_conservation_holds():
    result = run_live(CONFIG)
    assert result.conserved
    assert result.dropped == 0
    assert result.delivered == result.counters.deliveries
    assert result.sent == result.counters.messages


def test_duration_truncates_replay_and_scoring_window():
    full = run_live(CONFIG)
    half = run_live(CONFIG, duration=full.sim_span_s / 2.0)
    assert half.sim_span_s == pytest.approx(full.sim_span_s / 2.0)
    assert 0 < half.sent < full.sent
    assert half.conserved


def test_result_is_simulator_shaped():
    result = run_live(CONFIG)
    sim = run_simulation(CONFIG)
    for field in (
        "loss_of_fidelity",
        "per_repository_loss",
        "counters",
        "tree_stats",
        "effective_degree",
        "avg_comm_delay_ms",
        "sim_span_s",
    ):
        assert type(getattr(result, field)) is type(getattr(sim, field))
    assert result.fidelity == pytest.approx(100.0 - result.loss_of_fidelity)
    assert result.transport == "inprocess"
    assert result.wall_seconds > 0.0


def test_live_runs_churn_configs_like_the_oracle():
    """Late joiners have nodes from the start, and a delivery to a
    departed repository drops at its arrival stamp, as in the engine."""
    config = SCALE_PRESETS["tiny"]
    churned = config.with_(
        churn=schedule_for_config(config, joins=1, departs=1, updates=1)
    )
    live = run_live(churned)
    oracle = run_simulation(churned.with_(kernel="scalar"))
    assert live.conserved
    assert live.counters.reconfigurations > 0
    assert live.counters == oracle.counters
    assert live.loss_of_fidelity == oracle.loss_of_fidelity
    assert live.extras["per_pair_loss"] == oracle.extras["per_pair_loss"]
    assert live.tree_stats == oracle.tree_stats


def test_adaptive_clients_leave_the_repository_plane_untouched():
    """Modeled clients ride out every rewire: the repository plane runs
    as without them, no client is served from a pair its repository no
    longer receives, and the client totals are the engine's."""
    plain_config = ADAPTIVE_BASE.with_(
        adaptive=AdaptivePolicy(window=30.0, threshold=0.75, max_rewires=4)
    )
    config = plain_config.with_(clients_per_repository=24)
    network = build_live_network(config)
    counters = network.counters
    unsubscribed_serves = []
    for node in network.repositories.values():
        def receive(item_id, value, tag, seq, now, node=node, inner=node.receive):
            checks = counters.client_checks
            rows = inner(item_id, value, tag, seq, now)
            if item_id not in node.receive_c and counters.client_checks != checks:
                unsubscribed_serves.append((node.node, item_id))
            return rows

        node.receive = receive
    served = run_live(config, network=network)
    plain = run_live(plain_config)
    assert served.extras["adaptive_rewires"] > 0
    assert served.counters.client_messages > 0
    assert unsubscribed_serves == []
    assert served.counters == run_simulation(config).counters
    assert dataclasses.replace(
        served.counters, client_checks=0, client_messages=0
    ) == plain.counters
    assert served.loss_of_fidelity == plain.loss_of_fidelity
    assert served.extras["per_pair_loss"] == plain.extras["per_pair_loss"]
    assert served.tree_stats == plain.tree_stats


def test_no_client_is_served_from_a_pair_its_repository_no_longer_receives():
    """The reference oracle's rule: no receive coherency, no client
    service -- even for a copy that was in flight at the unsubscribe."""
    counters = CostCounters()
    node = RepositoryNode(1, 0.001, counters, receive_c={0: 0.5})
    node.deliveries[0] = [0.0, 1.0]
    node.clients[0] = Staircase([0.1, 0.2], 1.0)

    def served() -> tuple[int, int]:
        return counters.client_checks, counters.client_messages

    node.receive(0, 5.0, None, 1, 1.0)
    assert served() == (2, 2)
    del node.receive_c[0]
    node.receive(0, 9.0, None, 2, 2.0)
    assert served() == (2, 2)
    assert node.deliveries[0][-2:] == [2.0, 9.0]  # the copy is still logged
    # A later rewire resumes the kept last-served state: both clients
    # still hold 5.0, so 9.0 reaches both.
    node.receive_c[0] = 0.5
    node.receive(0, 9.0, None, 3, 3.0)
    assert served() == (4, 4)


def test_live_loss_injection_matches_simulator_exactly():
    """``message_loss_probability > 0`` is real support, not a rejection:
    both planes consume the shared seeded loss stream in engine order."""
    config = CONFIG.with_(message_loss_probability=0.05)
    sim = run_simulation(config)
    live = run_live(config)
    assert live.dropped > 0
    assert live.conserved
    assert live.loss_of_fidelity == sim.loss_of_fidelity
    assert live.counters.drops == sim.counters.drops
    assert live.counters.messages == sim.counters.messages
    assert live.extras["per_pair_loss"] == sim.extras["per_pair_loss"]


@pytest.mark.parametrize("policy", ["distributed", "centralized"])
def test_live_failures_match_simulator_exactly(policy):
    """Crashes, partitions and loss under one shared schedule: the
    in-process transport shares the simulator's virtual-time kernel, so
    agreement stays bit-exact even mid-failover and mid-resync."""
    from repro.engine.failures import failures_for_config

    base = CONFIG.with_(policy=policy, message_loss_probability=0.02)
    config = base.with_(
        failures=failures_for_config(base, crashes=2, partitions=1)
    )
    sim = run_simulation(config.with_(kernel="scalar"))
    live = run_live(config)
    assert live.conserved
    assert live.dropped > 0
    assert live.loss_of_fidelity == sim.loss_of_fidelity
    assert live.per_repository_loss == sim.per_repository_loss
    assert live.counters == sim.counters
    assert live.extras["per_pair_loss"] == sim.extras["per_pair_loss"]
    assert live.extras["crashes"] == 2 and live.extras["partitions"] == 1
    # The failure economy really ran: failover re-homed orphans and
    # each recovery replayed one anti-entropy resync.
    assert live.counters.edges_added > 0
    assert live.counters.resyncs == 2
    assert live.counters.resync_messages <= live.counters.resync_checks


#: No network delay and a whole second of computation per copy: every
#: delivery lands on one of the traces' whole-second sample instants, so
#: updates, deliveries and a crash placed there share an instant.
TIED = CONFIG.with_(comm_target_ms=0.0, comp_delay_ms=1000.0)


def _delivery_at_an_update_instant(config) -> tuple[int, float]:
    """``(repository, t)``: a delivery reaches it at an instant the
    source also publishes at, read off a failure-free run's logs."""
    network = build_live_network(config)
    run_live(config, network=network)
    publishes = {t for t, _item_id, _value in network.source_schedule()}
    for repo, node in sorted(network.repositories.items()):
        for log in node.deliveries.values():
            for t in log[2::2]:  # log[:2] primes the copy
                if t in publishes and 50.0 <= t <= 200.0:
                    return repo, t
    raise AssertionError("no delivery shares an instant with an update")


@pytest.mark.parametrize("loss", [0.0, 0.05])
@pytest.mark.parametrize("policy", ["distributed", "centralized"])
def test_crash_update_and_delivery_at_one_instant_apply_in_engine_order(policy, loss):
    """Control < update < delivery at equal instants: the crash applies
    first, so the delivery of that same instant is a ``crash`` drop --
    and the whole run equals the simulator's, whose tie-break it is."""
    base = TIED.with_(policy=policy, message_loss_probability=loss)
    # Nothing before ``t`` changes when the crash is added at ``t``.
    repo, t = _delivery_at_an_update_instant(base)
    config = base.with_(
        failures=FailureSchedule(
            (FailureEvent.crash(t, repo), FailureEvent.recover(t + 30.0, repo))
        )
    )
    network = build_live_network(config)
    recorder = TraceRecorder(policy=policy)
    network.attach_observer(recorder)
    live = run_live(config, network=network)
    assert any(
        (e.kind, e.reason, e.dst, e.time) == ("drop", "crash", repo, t)
        for e in recorder.events
    )
    sim = run_simulation(config)
    assert live.loss_of_fidelity == sim.loss_of_fidelity
    assert live.messages == sim.messages
    assert live.counters.deliveries == sim.counters.deliveries
    assert live.counters.drops == sim.counters.drops
    # Jitter moves the deliveries off the shared instants, reproducibly.
    first = run_live(config, jitter_ms=5.0)
    assert _result_digest(first) == _result_digest(run_live(config, jitter_ms=5.0))
    assert _result_digest(first) != _result_digest(live)


def test_live_rejects_unknown_transport_and_bad_duration():
    with pytest.raises(ConfigurationError):
        run_live(CONFIG, "carrier-pigeon")
    for bad in (-1.0, 0.0, math.nan):
        with pytest.raises(ConfigurationError, match="duration must be positive"):
            run_live(CONFIG, duration=bad)


@pytest.mark.parametrize("bad", [-math.inf, -1.0, 0.0, math.nan])
def test_check_duration_refuses_what_is_not_positive(bad):
    # The one check both live planes call: "not > 0", so NaN is refused
    # too, where "<= 0" would let it through.
    with pytest.raises(ConfigurationError, match="duration must be positive"):
        check_duration(bad)


def test_check_duration_accepts_no_truncation_and_any_positive_span():
    for good in (None, 1e-9, 30.0):
        check_duration(good)


#: Pacing inputs no run can honour, each with the message that names it.
#: NaN passes a ``< 0`` / ``<= 0`` guard, so every one is worded "not".
BAD_PACING = {
    "time-scale-zero": ({"time_scale": 0.0}, "time_scale must be positive"),
    "time-scale-negative": ({"time_scale": -60.0}, "time_scale must be positive"),
    "time-scale-nan": ({"time_scale": math.nan}, "time_scale must be positive"),
    "heartbeat-negative": ({"heartbeat_interval_s": -1.0}, "heartbeat_interval_s"),
    "heartbeat-nan": ({"heartbeat_interval_s": math.nan}, "heartbeat_interval_s"),
    "jitter-negative": ({"jitter_ms": -1.0}, "jitter_ms must be >= 0"),
    "jitter-nan": ({"jitter_ms": math.nan}, "jitter_ms must be >= 0"),
}


@pytest.mark.parametrize("pacing, message", BAD_PACING.values(), ids=BAD_PACING)
def test_check_pacing_refuses_what_no_run_can_honour(pacing, message):
    with pytest.raises(ConfigurationError, match=message):
        check_pacing(**{"time_scale": 60.0, "heartbeat_interval_s": 0.5, **pacing})


def test_check_pacing_accepts_the_defaults_and_disabled_probes():
    check_pacing(60.0, 0.5)
    check_pacing(1e-3, 0.0, 0.0)
    check_pacing(5000.0, 2.0, 5.0)


@pytest.mark.parametrize("transport", ["inprocess", "tcp"])
@pytest.mark.parametrize("pacing, message", BAD_PACING.values(), ids=BAD_PACING)
def test_run_live_refuses_bad_pacing_before_it_builds(
    transport, pacing, message, monkeypatch
):
    """A NaN pace once "ran" a TCP network for 9 ms and returned a result,
    and a NaN jitter silently ran without jitter; both planes refuse
    every bad pacing input, whichever plane reads it, up front."""

    def no_build(*args, **kwargs):
        raise AssertionError("a network was built for a refused run")

    monkeypatch.setattr(harness, "build_live_network", no_build)
    with pytest.raises(ConfigurationError, match=message):
        run_live(CONFIG, transport, **pacing)


def test_inprocess_transport_cannot_leak(monkeypatch):
    """The defensive conservation check in the virtual-time driver."""
    from repro.live import transport as transport_module

    monkeypatch.setattr(
        transport_module.TransportStats,
        "conserved",
        property(lambda self: False),
    )
    with pytest.raises(SimulationError):
        run_live(CONFIG)
