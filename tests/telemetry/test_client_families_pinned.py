"""The client's op families, pinned sample by sample.

``ops_total``, ``ops_failed_total``, ``op_latency_ms`` and the
``tenant_*`` families carry what every judge reads about client ops:
the chaos verifier, the alert rules, the correlator and the tenant
fairness math.  This pins every sampled value of those families, and
their lines in the final Prometheus dump, for one small failing chaos
run and one small tenant run.  A change in how the families are built
must leave every value, every sample instant and every ``_sum``'s
float addition order as it is.
"""

import hashlib

import pytest

from repro.chaos import FAMILIES, ChaosRunConfig, RecoverySLO, get_scenario, run_scenario
from repro.namespace.treegen import TreeSpec
from repro.telemetry import parse_series_key
from repro.tenants import TenantSpec

pytestmark = [pytest.mark.telemetry, pytest.mark.slow]

CLIENT_FAMILIES = ("ops_total", "ops_failed_total", "op_latency_ms", "tenant_")

SMALL_TREE = TreeSpec(depth=2, dirs_per_dir=2, files_per_dir=4)

TENANT_RUN = ChaosRunConfig(
    deployments=2, vcpus=128.0, telemetry_interval_ms=200.0,
    tenants=(
        TenantSpec("alpha", workload="mixed", clients=2, think_ms=20.0,
                   tree=SMALL_TREE),
        TenantSpec("beta", workload="readstorm", clients=2, think_ms=20.0,
                   tree=SMALL_TREE),
    ),
    slo=RecoverySLO(window_ms=1_500.0),
)


def _client_families(result):
    """Digest of the client families' samples and final Prometheus
    lines, and the family names the samples hold."""
    digest = hashlib.blake2b(digest_size=16)
    names = set()
    for t_ms, values in result.telemetry.timeseries.samples:
        for key in sorted(values):
            if key.startswith(CLIENT_FAMILIES):
                names.add(parse_series_key(key)[0])
                digest.update(f"{t_ms!r}|{key}|{values[key]!r}\n".encode())
    for line in result.telemetry.registry.prometheus_text().splitlines():
        name = (line.split()[2] if line.startswith("#")
                else line.split("{")[0].split(" ")[0])
        if name.startswith(CLIENT_FAMILIES):
            digest.update(line.encode() + b"\n")
    return digest.hexdigest(), sorted(names)


def test_failing_chaos_run_client_families_pinned():
    result = run_scenario(
        get_scenario("ack-loss-noretry"), FAMILIES["catalog"].config
    )
    assert not result.passed
    assert result.ops_failed == 10
    assert _client_families(result) == (
        "3d53026066efeca392c7dc5836389da8",
        ["op_latency_ms_count", "op_latency_ms_sum", "ops_failed_total",
         "ops_total"],
    )


def test_tenant_run_client_families_pinned():
    result = run_scenario(get_scenario("control"), TENANT_RUN)
    assert result.passed
    assert _client_families(result) == (
        "2a682162ed00fc777a23b5162a144d13",
        ["op_latency_ms_count", "op_latency_ms_sum", "ops_total",
         "tenant_cache_hits_total", "tenant_cache_misses_total",
         "tenant_latency_bucket", "tenant_op_latency_ms_count",
         "tenant_op_latency_ms_sum", "tenant_ops_total"],
    )
