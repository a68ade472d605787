"""Tests for the ``python -m repro obs`` subcommand and CLI logging."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import build_parser, command_options, main as cli_main


def test_obs_trace_prints_spans_and_reconciles(capsys):
    cli_main(["obs", "trace", "--preset", "tiny", "--limit", "6"])
    out = capsys.readouterr().out
    assert "spans recorded" in out
    assert "(counters agree: True)" in out
    assert "source" in out and "check" in out


def test_obs_trace_single_update_filter(capsys):
    cli_main(["obs", "trace", "--update", "0", "--limit", "0"])
    out = capsys.readouterr().out
    span_lines = [line for line in out.splitlines() if line.startswith("  t=")]
    assert span_lines
    assert all("update=0 " in line for line in span_lines)


def test_obs_trace_json_artifact(capsys, tmp_path):
    path = tmp_path / "trace.json"
    cli_main(["obs", "trace", "--limit", "1", "--json", str(path)])
    spans = json.loads(path.read_text())
    assert spans and {"kind", "update_id", "node"} <= set(spans[0])
    assert str(path) in capsys.readouterr().out


def test_obs_metrics_snapshot(capsys):
    cli_main(["obs", "metrics", "--preset", "tiny"])
    snapshot = json.loads(capsys.readouterr().out)
    assert set(snapshot) == {"counters", "gauges", "histograms"}
    assert any(
        name.startswith("edge_latency_ms[") for name in snapshot["histograms"]
    )


def test_obs_metrics_json_artifact(capsys, tmp_path):
    path = tmp_path / "metrics.json"
    cli_main(["obs", "metrics", "--json", str(path)])
    snapshot = json.loads(path.read_text())
    assert "histograms" in snapshot


def test_obs_explain_names_hops_and_reasons(capsys):
    cli_main(["obs", "explain", "--failures", "2,1", "--seed", "11"])
    out = capsys.readouterr().out
    assert "loss segments" in out
    assert "filtered on hop" in out
    assert "[crash]" in out or "[partition]" in out


def test_obs_explain_clean_run_reports_filtering_only(capsys):
    cli_main(["obs", "explain", "--preset", "tiny"])
    out = capsys.readouterr().out
    assert "dropped on hop" not in out


def test_obs_options_do_not_clobber_top_level():
    args = build_parser().parse_args(
        ["--preset", "small", "obs", "trace", "--preset", "tiny"]
    )
    assert args.preset == "small"
    assert command_options(args).preset == "tiny"
    args = build_parser().parse_args(["--preset", "small", "obs", "trace"])
    assert args.preset == "small"
    assert command_options(args).preset == "tiny"


def test_obs_kernel_is_not_an_option():
    for action in ("trace", "metrics", "explain"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs", action, "--kernel", "scalar"])


def test_log_level_flag_accepted_and_quiet_at_error(capsys):
    cli_main([
        "--log-level", "error",
        "experiments", "run", "table1", "--preset", "tiny", "--no-cache",
    ])
    out = capsys.readouterr().out
    # Progress lines route through the logger (suppressed at error);
    # the experiment's rendered text still prints.
    assert "execution plane:" not in out
    assert "Ticker" in out


def test_default_log_level_keeps_progress_output(capsys):
    cli_main([
        "experiments", "run", "table1", "--preset", "tiny", "--no-cache",
    ])
    out = capsys.readouterr().out
    assert "execution plane:" in out
