"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_demo_command(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "create_file" in out
    assert "ok=True" in out
    assert "active NameNodes" in out


def test_experiments_command(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    assert "fig11" in out
    assert "table3" in out


def test_table3_command(capsys):
    assert main(["table3", "--sizes", "64"]) == 0
    out = capsys.readouterr().out
    assert "HopsFS (ms)" in out
    assert "64" in out


def test_scaling_command(capsys):
    assert main(["scaling", "--clients", "8", "--ops", "12"]) == 0
    out = capsys.readouterr().out
    assert "lambda" in out
    assert "cephfs" in out


def test_spotify_defaults_parse():
    args = build_parser().parse_args(["spotify"])
    assert args.base == 3_000.0
    assert args.clients == 128


def test_replay_command(tmp_path, capsys):
    trace = tmp_path / "ops.trace"
    trace.write_text("0 mkdirs /t\n5 create /t/a\n9 stat /t/a\n")
    from repro.cli import main as cli_main

    assert cli_main(["replay", str(trace), "--clients", "2"]) == 0
    out = capsys.readouterr().out
    assert "replayed 3 ops (3 ok, 0 failed)" in out


def test_chaos_run_list(capsys):
    assert main(["chaos", "run", "--list"]) == 0
    out = capsys.readouterr().out
    assert "ack-loss" in out
    assert "tcp-sever" in out


def test_chaos_run_rejects_unknown_scenario(capsys):
    assert main(["chaos", "run", "meteor-strike"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_chaos_run_requires_a_scenario(capsys):
    assert main(["chaos", "run"]) == 2
    assert "need a scenario" in capsys.readouterr().err


@pytest.mark.slow
@pytest.mark.chaos
def test_chaos_run_from_json_file(tmp_path, capsys):
    import json

    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "name": "tiny",
        "faults": [
            {"kind": "tcp_delay", "at_ms": 300.0, "duration_ms": 400.0,
             "params": {"extra_ms": 5.0}},
        ],
    }))
    code = main([
        "chaos", "run", "--file", str(path),
        "--clients", "4", "--think", "10",
        "--window", "1200", "--drain", "1500",
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "tiny: PASS" in out
    assert "verifier: PASS" in out
    assert "fault log:" in out


ONE_RULE = {"rules": [{
    "type": "threshold", "name": "queue_high",
    "signal": {"metric": "queue_depth", "mode": "gauge"},
    "threshold": 5.0, "op": ">",
}]}


@pytest.fixture
def rules_file(tmp_path):
    import json

    path = tmp_path / "rules.json"
    path.write_text(json.dumps(ONE_RULE) + "\n")
    return str(path)


def test_incidents_rules_reads_a_rules_file(capsys, rules_file):
    assert main(["incidents", "rules", "--rules-file", rules_file]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    names = [row[0] for row in rows[2:] if row]
    assert names == ["queue_high"]


def test_incidents_analyze_applies_a_rules_file(capsys, rules_file, tmp_path):
    import json

    series = tmp_path / "telemetry.jsonl"
    series.write_text("".join(
        json.dumps({"t_ms": t, "values": {"queue_depth": depth}}) + "\n"
        for t, depth in ((250.0, 1.0), (500.0, 9.0), (750.0, 9.0),
                         (1000.0, 1.0))
    ))
    out_json = tmp_path / "incidents.json"
    assert main([
        "incidents", "analyze", str(series), "--rules-file", rules_file,
        "--json", str(out_json),
    ]) == 0
    report = json.loads(out_json.read_text())
    alerts = [
        alert for incident in report["incidents"] for alert in incident["alerts"]
    ]
    assert [alert["rule"] for alert in alerts] == ["queue_high"]
