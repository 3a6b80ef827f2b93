"""The per-tenant dashboard renderer and the ``repro tenants`` CLI."""

import json

import pytest

from repro.telemetry import read_jsonl
from repro.telemetry.sampler import TimeSeries
from repro.telemetry.registry import label_key, parse_series_key, series_key
from repro.tenants import render_tenant_dashboard

pytestmark = pytest.mark.tenant


def _key(name, **labels):
    return series_key(name, label_key(labels))


def _ts():
    ts = TimeSeries()
    total = 0.0
    for index in range(4):
        total += 12.0
        ts.append(200.0 * (index + 1), {
            _key("tenant_ops_total", op="read_file", tenant="acme"): total,
            _key("tenant_ops_total", op="read_file", tenant="umbrella"):
                total / 2,
            _key("tenant_latency_bucket", tenant="acme", le="5.0"): total,
            _key("tenant_latency_bucket", tenant="acme", le="+Inf"): total,
        })
    return ts


def test_dashboard_renders_per_tenant_rows():
    out = render_tenant_dashboard(_ts())
    assert "acme" in out and "umbrella" in out
    assert "ops/interval" in out
    assert "p99 ms" in out  # acme has bucket series
    assert "fairness (Jain index per interval)" in out
    assert "Jain overall" in out


def test_dashboard_empty_fallback():
    out = render_tenant_dashboard(TimeSeries())
    assert "no tenant-labelled series" in out


@pytest.mark.slow
def test_tenants_cli_end_to_end(tmp_path, capsys):
    from repro.cli import main

    out_dir = tmp_path / "exports"
    report_json = tmp_path / "report.json"
    code = main([
        "tenants", "--duration", "1500", "--deployments", "2",
        "--interval", "200", "--profile",
        "--out", str(out_dir), "--json", str(report_json),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "mltrain" in out and "analytics" in out
    assert "Jain overall" in out
    assert "verifier: PASS" in out
    assert "throttled: " in out
    assert "per-tenant critical-path shares:" in out
    for name in ("tenants.jsonl", "tenants.csv", "tenants.prom"):
        assert (out_dir / name).exists()
    tenants = {
        parse_series_key(key)[1]["tenant"]
        for key in read_jsonl(str(out_dir / "tenants.jsonl")).keys()
        if key.startswith("tenant_ops_total")
    }
    assert tenants == {"prod", "analytics", "mltrain", "batch"}
    payload = json.loads(report_json.read_text())
    assert payload["version"] == 1
    assert {t["name"] for t in payload["report"]["tenants"]} >= {
        "mltrain", "prod"
    }
    assert payload["counts"]["mltrain"]["issued"] > 0


def test_tenants_parser_defaults():
    from repro.cli import build_parser

    args = build_parser().parse_args(["tenants"])
    assert args.duration == 10_000.0
    assert args.deployments == 4
    assert args.profile is False
