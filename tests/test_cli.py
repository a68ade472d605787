"""Tests for the ``python -m repro`` CLI."""

import pytest

from repro.__main__ import build_parser, command_options, main as cli_main
from repro.engine import SCALE_PRESETS


def test_parser_defaults():
    args = build_parser().parse_args([])
    assert args.preset == "tiny"
    assert args.policy == "distributed"
    assert args.t == 80.0
    assert not args.controlled
    assert args.jobs == 1
    assert args.degrees is None
    assert args.workload is None


def test_parser_rejects_unknown_preset():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--preset", "galactic"])


def test_parser_rejects_unknown_policy():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--policy", "gossip"])


def test_cli_runs_end_to_end(capsys):
    cli_main(["--preset", "tiny", "--t", "50", "--degree", "3", "--seed", "5"])
    out = capsys.readouterr().out
    assert "loss of fidelity" in out
    assert "degree of cooperation : 3" in out


def test_cli_controlled_mode(capsys):
    cli_main(["--preset", "tiny", "--controlled", "--degree", "20"])
    out = capsys.readouterr().out
    assert "Eq. 2 controlled" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["--t", "150"],
        ["--degree", "0"],
        ["--degrees", "2,-1"],
        ["--clients", "-1"],
        ["--comp-delay", "-5"],
        ["--degrees", ","],
        ["--comp-delay", "inf"],
        ["--comp-delay", "nan"],
        ["--comm-delay", "inf"],
    ],
)
def test_cli_default_command_rejects_bad_values_cleanly(argv, capsys):
    """A bad value exits with a message, not a traceback, and runs nothing."""
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["--preset", "tiny", *argv])
    assert excinfo.value.code not in (0, None)
    assert capsys.readouterr().out == ""


def test_cli_delay_overrides(capsys):
    cli_main(["--preset", "tiny", "--comm-delay", "40", "--comp-delay", "5"])
    out = capsys.readouterr().out
    assert "mean comm delay       : 40.0 ms" in out


def test_parser_rejects_malformed_workload_spec():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--workload", "tsunami"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--workload", "flash_crowd:intensity=hot"])


def test_cli_workload_run(capsys):
    cli_main(
        ["--preset", "tiny", "--workload", "flash_crowd:intensity=1.2", "--seed", "5"]
    )
    out = capsys.readouterr().out
    assert "workload=flash_crowd" in out
    assert "loss of fidelity" in out


def test_cli_workload_sweep_serial_and_parallel_agree(capsys):
    argv = ["--preset", "tiny", "--degrees", "2,4", "--workload", "diurnal",
            "--seed", "5"]
    cli_main(argv + ["--jobs", "1"])
    serial = capsys.readouterr().out
    cli_main(argv + ["--jobs", "2"])
    parallel = capsys.readouterr().out
    assert "workload=diurnal" in serial
    assert serial.splitlines()[1:] == parallel.splitlines()[1:]


def test_parser_rejects_malformed_churn_spec():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--churn", "1,2"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--churn", "1,-2,3"])


def test_cli_churn_run(capsys):
    cli_main(["--preset", "tiny", "--churn", "1,1,1", "--seed", "5"])
    out = capsys.readouterr().out
    assert "churn events          : 3" in out
    assert "reconfiguration cost" in out


def test_cli_churn_degree_sweep_serial_and_parallel_agree(capsys):
    argv = ["--preset", "tiny", "--degrees", "2,4", "--churn", "1,1,1", "--seed", "5"]
    cli_main(argv + ["--jobs", "1"])
    serial = capsys.readouterr().out
    cli_main(argv + ["--jobs", "2"])
    parallel = capsys.readouterr().out
    assert "reconf=3" in serial
    assert serial.splitlines()[1:] == parallel.splitlines()[1:]


def test_cli_degree_sweep_serial_and_parallel_agree(capsys):
    argv = ["--preset", "tiny", "--degrees", "1,3", "--seed", "5"]
    cli_main(argv + ["--jobs", "1"])
    serial = capsys.readouterr().out
    cli_main(argv + ["--jobs", "2"])
    parallel = capsys.readouterr().out
    assert "degree=1" in serial and "degree=3" in serial
    # Identical per-degree summaries: the merge is deterministic.
    assert serial.splitlines()[1:] == parallel.splitlines()[1:]


def test_cli_experiments_list(capsys):
    cli_main(["experiments", "list"])
    out = capsys.readouterr().out
    for name in ("table1", "figure3", "workload_sensitivity"):
        assert name in out


def test_cli_experiments_show_prints_schema_and_plan(capsys):
    cli_main(["experiments", "show", "figure3", "--preset", "tiny"])
    out = capsys.readouterr().out
    assert "t_values" in out and "floats" in out
    assert "plan (tiny preset):" in out
    assert "plan fingerprint:" in out


def test_cli_experiments_show_unknown_rejected(capsys):
    with pytest.raises(SystemExit):
        cli_main(["experiments", "show", "figure99"])


def test_cli_experiments_options_do_not_clobber_top_level(capsys):
    """An explicit top-level --preset survives the subcommand's default,
    and the subcommand runs on its own options only."""
    args = build_parser().parse_args(
        ["--preset", "paper", "experiments", "run", "figure3"]
    )
    assert args.preset == "paper"
    assert command_options(args).preset == "small"
    own = command_options(build_parser().parse_args(
        ["experiments", "run", "figure3", "--preset", "tiny", "--jobs", "4"]
    ))
    assert (own.preset, own.jobs) == ("tiny", 4)
    cli_main(["--preset", "paper", "experiments", "show", "figure3"])
    assert "plan (tiny preset):" in capsys.readouterr().out


@pytest.mark.parametrize("action", [["show", "figure3"], ["run", "figure3"]])
def test_cli_experiments_preset_choices_are_the_scale_presets(action, capsys):
    for preset in SCALE_PRESETS:
        own = command_options(build_parser().parse_args(
            ["experiments", *action, "--preset", preset]
        ))
        assert own.preset == preset
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["experiments", *action, "--preset", "galactic"]
        )
    assert "scalability" in capsys.readouterr().err


def test_cli_experiments_run_with_params(capsys, tmp_path):
    cli_main([
        "experiments", "run", "figure11",
        "--preset", "tiny",
        "--cache-dir", str(tmp_path),
        "--param", "figure11.t_percent=50",
    ])
    out = capsys.readouterr().out
    assert "Figure 11" in out
    assert "execution plane:" in out
    assert (tmp_path / "artifacts" / "tiny" / "figure11.json").exists()


def test_cli_experiments_run_warm_rerun_hits_cache(capsys, tmp_path):
    argv = ["experiments", "run", "figure11", "--preset", "tiny",
            "--cache-dir", str(tmp_path)]
    cli_main(argv)
    cold = capsys.readouterr().out
    cli_main(argv)
    warm = capsys.readouterr().out
    assert "0 cached, 2 simulated" in cold
    assert "2 cached, 0 simulated" in warm


def test_cli_experiments_run_no_cache(capsys, tmp_path):
    cli_main(["experiments", "run", "figure11", "--preset", "tiny",
              "--no-cache"])
    out = capsys.readouterr().out
    assert "0 cached, 2 simulated]" in out
    assert "[artifacts:" not in out


def test_cli_experiments_run_rejects_bad_param(tmp_path):
    with pytest.raises(SystemExit):
        cli_main(["experiments", "run", "figure11", "--preset", "tiny",
                  "--no-cache", "--param", "figure11.bogus=1"])
    with pytest.raises(SystemExit):
        cli_main(["experiments", "run", "figure11", "--preset", "tiny",
                  "--no-cache", "--param", "not-a-pair"])


def test_cli_experiments_run_without_names_runs_the_registry_in_order(
    monkeypatch,
):
    """No names means every registered experiment, in registry order;
    checked on the names handed to the runner, without running them."""
    from repro.experiments import api

    class Planned(Exception):
        pass

    requested = []

    def record(names, **kwargs):
        requested.append(list(names))
        raise Planned

    monkeypatch.setattr(api, "run_experiments", record)
    with pytest.raises(Planned):
        cli_main(["experiments", "run", "--preset", "tiny", "--no-cache"])
    assert requested == [api.available_experiments()]
    assert set(requested[0]) >= {
        "table1",
        "figure3",
        "figure5",
        "figure6",
        "figure7",
        "figure8",
        "figure9",
        "figure10",
        "figure11",
        "scalability",
        "sensitivity",
        "pull_baseline",
        "hybrid_tradeoff",
        "churn_resilience",
        "failure_resilience",
        "workload_sensitivity",
        "adaptive_tradeoff",
        "live_crosscheck",
    }


def test_cli_experiments_run_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        cli_main(["experiments", "run", "figure99"])


def test_cli_experiments_run_single_experiment(capsys):
    cli_main(["experiments", "run", "table1", "--preset", "tiny"])
    out = capsys.readouterr().out
    assert "MSFT" in out
    assert "[table1 done in" in out


def test_cli_experiments_run_accepts_jobs(capsys):
    cli_main(["experiments", "run", "figure11", "--preset", "tiny",
              "--jobs", "2"])
    out = capsys.readouterr().out
    assert "[figure11 done in" in out


def test_cli_experiments_warm_rerun_skips_simulation(capsys, tmp_path):
    """Acceptance: a warm run performs zero new simulations and its
    output is identical to the cold run's (modulo timing lines)."""
    argv = ["experiments", "run", "table1", "figure11", "pull_baseline",
            "--preset", "tiny", "--cache-dir", str(tmp_path)]
    cli_main(argv)
    cold = capsys.readouterr().out
    cli_main(argv)
    warm = capsys.readouterr().out
    assert "0 cached, 7 simulated]" in cold  # 2 sweep + 4 pull + 1 table1
    assert "7 cached, 0 simulated]" in warm

    def stable(text: str) -> list[str]:
        return [line for line in text.splitlines()
                if "done in" not in line and "execution plane" not in line]

    assert stable(cold) == stable(warm)


# ----------------------------------------------------------------------
# Seed threading through the registry runner (experiments run)
# ----------------------------------------------------------------------


def test_cli_experiments_seed_threads_into_every_planned_config():
    from repro.experiments import api

    spec = api.get_experiment("figure11")
    ctx = api.ExperimentContext(
        preset="tiny", params=spec.resolve_params(), overrides={"seed": 4242}
    )
    assert all(config.seed == 4242 for config in spec.plan(ctx))


def test_cli_experiments_run_seed_override_changes_results(capsys):
    argv = ["experiments", "run", "figure11", "--preset", "tiny", "--no-cache"]
    cli_main(argv)
    default_seed = capsys.readouterr().out
    cli_main(argv + ["--seed", "4242"])
    overridden = capsys.readouterr().out
    assert "Figure 11" in overridden
    assert "[figure11 done in" in overridden
    # A different master seed regenerates topology/traces/interests, so
    # the reported numbers move; identical output would mean the seed
    # never reached the configs.
    assert default_seed.splitlines()[:-1] != overridden.splitlines()[:-1]


# ----------------------------------------------------------------------
# The live subcommand
# ----------------------------------------------------------------------


def test_cli_live_run_inprocess(capsys):
    cli_main(["live", "run", "--preset", "tiny", "--duration", "60"])
    out = capsys.readouterr().out
    assert "transport=inprocess" in out
    assert "observed loss of fidelity" in out
    assert "conserved=True" in out


def test_cli_live_run_is_deterministic(capsys):
    argv = ["live", "run", "--preset", "tiny", "--duration", "60",
            "--seed", "7"]
    cli_main(argv)
    first = capsys.readouterr().out
    cli_main(argv)
    second = capsys.readouterr().out

    def stable(text: str) -> list[str]:
        return [line for line in text.splitlines() if "wall time" not in line]

    assert stable(first) == stable(second)


def _client_lines(out: str) -> list[str]:
    return [
        line for line in out.splitlines()
        if line.startswith(("modeled clients", "client checks/serves"))
    ]


@pytest.mark.parametrize(
    "command",
    [
        ["live", "run"],
        ["fleet", "run", "--workers", "2", "--time-scale", "2000"],
    ],
    ids=["live", "fleet"],
)
def test_cli_run_clients_print_the_default_commands_client_lines(command, capsys):
    """``--clients`` runs the engine's modeled clients on every plane,
    and every command reports them in the same two lines."""
    cli_main(["--preset", "tiny", "--clients", "3"])
    engine = _client_lines(capsys.readouterr().out)
    cli_main([*command, "--preset", "tiny", "--clients", "3"])
    lines = _client_lines(capsys.readouterr().out)
    assert lines == engine
    assert lines[0] == "modeled clients       : 60"
    checks, serves = lines[1].split(": ")[1].split("/")
    assert int(checks) >= int(serves) > 0


def test_cli_live_options_do_not_clobber_top_level():
    args = build_parser().parse_args(
        ["--preset", "paper", "live", "run", "--preset", "tiny"]
    )
    assert args.preset == "paper"
    assert command_options(args).preset == "tiny"
    args = build_parser().parse_args(["--preset", "paper", "live", "run"])
    assert args.preset == "paper"
    assert command_options(args).preset == "tiny"


def test_cli_live_rejects_bad_transport_and_jobs():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["live", "run", "--transport", "udp"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["live", "run", "--jobs", "2"])


def test_cli_kernel_is_no_option():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--kernel", "scalar"])
