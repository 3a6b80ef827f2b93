#!/usr/bin/env bash
# Tier-1 smoke run: the unit/integration suite minus anything marked
# slow or bench, then one traced+telemetry microbenchmark whose
# exports must parse.  Target budget: under ~90 seconds.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

python -m pytest -x -q -m "not slow and not bench" "$@"

# Telemetry smoke: a small traced + instrumented run; every export
# format must round-trip through its parser.
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
python -m repro telemetry --trace --clients 32 --ops 24 --warmup 16 \
    --deployments 4 --out "$out" > "$out/dashboard.txt"
grep -q "fleet (NameNodes per deployment)" "$out/dashboard.txt"
grep -q "invariant violation" "$out/dashboard.txt"
python - "$out" <<'EOF'
import csv
import sys

from repro.telemetry import parse_prometheus_text, read_jsonl

out = sys.argv[1]
ts = read_jsonl(f"{out}/telemetry.jsonl")
assert len(ts.samples) > 0, "JSONL export is empty"
assert ts.keys(), "JSONL export has no series"
samples = parse_prometheus_text(open(f"{out}/telemetry.prom").read())
assert samples, "Prometheus export is empty"
assert any(k.startswith("ops_total") for k in samples), samples.keys()
rows = list(csv.reader(open(f"{out}/telemetry.csv")))
assert rows and rows[0][0] == "t_ms", "CSV header malformed"
assert len(rows) == len(ts.samples) + 1, "CSV row count mismatch"
print(f"telemetry smoke ok: {len(ts.samples)} samples, "
      f"{len(ts.keys())} series, {len(samples)} prom samples")
EOF

# Profiler smoke: a profiled microbenchmark; the Chrome trace must be
# valid (finite, non-negative timestamps), the stage attribution must
# tile each op's latency exactly, and a self-diff must be clean.  (The
# run's event hash against the committed BENCH_profile.json is pinned
# by tests/profile/test_bench_profile_pinned.py.)
python -m repro profile run --clients 32 --ops 24 --warmup 16 \
    --deployments 4 --out "$out/profile" \
    --bench-json "$out/BENCH_profile.json" > "$out/profile.txt"
grep -q "critical-path latency by op type" "$out/profile.txt"
python - "$out" <<'EOF'
import json
import math
import sys

from repro.profile import Profile, diff_profiles

out = sys.argv[1]
trace = json.load(open(f"{out}/profile/trace.chrome.json"))
events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
assert events, "Chrome trace has no complete events"
for event in events:
    assert math.isfinite(event["ts"]) and event["ts"] >= 0, event
    assert math.isfinite(event["dur"]) and event["dur"] >= 0, event
profile = Profile.load(f"{out}/profile/profile.json")
assert len(profile.ops) > 0, "profile has no completed ops"
for record in profile.ops:
    gap = abs(record.attributed_ms - record.total_ms)
    assert gap < 1e-6, (record.op, record.span_id, gap)
diff = diff_profiles(profile, profile)
assert not diff.regressions(), "self-diff reported regressions"
bench = json.load(open(f"{out}/BENCH_profile.json"))
assert bench["ops"], "bench json has no op summaries"
print(f"profile smoke ok: {len(profile.ops)} ops attributed, "
      f"{len(events)} trace events, self-diff clean")
EOF

# Chaos smoke: one fast fault scenario end-to-end under load — the
# engine injects, the invariant/liveness/SLO verifier must pass.  The
# chaos family turns detection on; this stage runs without it.
python -m repro chaos run ack-loss --no-detect --clients 12 --window 4000 \
    --drain 5000 > "$out/chaos.txt"
grep -q "verifier: PASS" "$out/chaos.txt"
grep -q "fault log:" "$out/chaos.txt"
echo "chaos smoke ok: $(head -1 "$out/chaos.txt")"

# Datanode smoke: the two-scenario data-plane family at reduced scale
# — kills must be repaired within the SLO, slow disks must not cause
# deficits, and the records must carry the replication evidence.
python -m repro chaos matrix --family datanode \
    --clients 8 --deployments 2 --window 8000 --drain 3000 \
    --bench-json "$out/BENCH_datanode.json" > "$out/datanode.txt"
grep -q "matrix: PASS" "$out/datanode.txt"
python - "$out" <<'EOF'
import json
import sys

out = sys.argv[1]
bench = json.load(open(f"{out}/BENCH_datanode.json"))
kill = bench["scenarios"]["datanode-kill"]
assert kill["passed"], kill
assert kill["datanodes_dead"] == 2, kill
assert kill["repairs"] > 0, kill
assert not kill["lost_blocks"], kill
assert kill["replication_recovery_ms"] is not None, kill
slow = bench["scenarios"]["disk-slow"]
assert slow["passed"] and slow["datanodes_dead"] == 0, slow
print(f"datanode smoke ok: {kill['repairs']} repairs, "
      f"RF restored in {kill['replication_recovery_ms']:.0f} ms")
EOF

# Tenant smoke: the noisy-neighbor scenario at reduced scale — the
# QoS governor must cap the hog so the fairness gate (Jain floor +
# victim p99) recovers — then a short multi-tenant run through the
# scenario pipeline: its verifier must pass, and its exports must
# contain per-tenant series for every cast member.
python -m repro chaos run noisy-neighbor --deployments 2 \
    --window 8000 --drain 4000 --interval 200 > "$out/tenant.txt"
grep -q "verifier: PASS" "$out/tenant.txt"
grep -q "PASS fairness: Jain" "$out/tenant.txt"
python -m repro tenants --duration 1500 --deployments 2 \
    --interval 200 --out "$out/tenants" > "$out/tenants.txt"
grep -q "Jain overall" "$out/tenants.txt"
grep -q "verifier: PASS" "$out/tenants.txt"
python - "$out" <<'EOF'
import sys

from repro.telemetry import parse_prometheus_text, read_jsonl
from repro.telemetry.registry import parse_series_key

out = sys.argv[1]
ts = read_jsonl(f"{out}/tenants/tenants.jsonl")
tenants = {
    parse_series_key(key)[1]["tenant"]
    for key in ts.keys() if key.startswith("tenant_ops_total")
}
assert tenants >= {"prod", "analytics", "mltrain", "batch"}, tenants
samples = parse_prometheus_text(open(f"{out}/tenants/tenants.prom").read())
buckets = [k for k in samples if k.startswith("tenant_latency_bucket")]
assert buckets, "no per-tenant latency buckets exported"
print(f"tenant smoke ok: {sorted(tenants)} tenants, "
      f"{len(buckets)} bucket series")
EOF

# Incidents smoke: one fault scenario with online detection — the
# detector must page, the correlator must blame the injected fault,
# and the JSON export must round-trip through the report loader.
python -m repro chaos run ack-loss --detect --clients 12 --window 4000 \
    --drain 5000 --out "$out/incidents" > "$out/incidents.txt"
grep -q "PASS detection: incident #0 blamed fault:ack_loss" \
    "$out/incidents.txt"
grep -q "suspect 1. injected fault 'ack_loss'" "$out/incidents.txt"
python - "$out" <<'EOF'
import sys

from repro.incidents import load_report

out = sys.argv[1]
report = load_report(f"{out}/incidents/incidents.json")
assert report.scenario == "ack-loss", report.scenario
assert report.detected, "no incidents in the export"
top = report.incidents[0].top_suspect
assert top is not None and top.fault_kind == "ack_loss", top
assert report.mttd_ms is not None and report.mttd_ms <= 4_000.0
md = open(f"{out}/incidents/incidents.md").read()
assert "# Incident report" in md and "ack_loss" in md
print(f"incidents smoke ok: {len(report.incidents)} incident(s), "
      f"MTTD {report.mttd_ms:.0f} ms, top suspect {top.kind}")
EOF

# Resilience smoke: the metastable-overload family end-to-end — the
# brownout must pass gate 7 (goodput floor, zero ops committed past
# deadline, legal breaker transitions), the -noshed twin must fail it
# for the honest reason, and every record field, hashes included, must
# match the committed baseline (ordering matters: global id counters
# carry over between scenarios, so the records only reproduce over the
# whole family in its order).
python -m repro chaos run metastable-brownout > "$out/resilience.txt"
grep -q "PASS resilience:" "$out/resilience.txt"
grep -q "0 deadline violations" "$out/resilience.txt"
python -m repro chaos run metastable-brownout --detect \
    --drain 6000 > "$out/resilience_incidents.txt"
grep -q "alert breaker-open \[page\]" "$out/resilience_incidents.txt"
grep -q "PASS detection: incident #0 blamed fault:load_spike" \
    "$out/resilience_incidents.txt"
python -m repro chaos matrix --family resilience \
    --baseline BENCH_resilience.json > "$out/resilience_matrix.txt"
grep -q "FAIL (expected)" "$out/resilience_matrix.txt"
grep -q "resilience baseline: OK" "$out/resilience_matrix.txt"
grep -q "resilience matrix: PASS" "$out/resilience_matrix.txt"
echo "resilience smoke ok: $(grep 'PASS resilience:' "$out/resilience.txt" | head -1 | sed 's/^ *//')"

# Kernel smoke: the quick events/sec gate against the committed
# baseline — fails on a >25% regression at the quick scale point.
# (The baseline is best-of-repeats; host noise alone is ~±10%, so the
# gate's margin must sit well above it.  A real scheduler regression —
# calendar queue back to the global heap — is far larger.)
python -m repro bench kernel --quick --repeats 3 \
    --baseline benchmarks/results/BENCH_kernel.json \
    --threshold 0.25 > "$out/kernel.txt"
grep -q "kernel bench: PASS" "$out/kernel.txt"
echo "kernel smoke ok: $(grep 'kernel bench:' "$out/kernel.txt")"
