"""Per-tenant metric families and their registration.

The client emits four tenant-labelled families when ``client.tenant``
is set (see :meth:`repro.core.client.LambdaFSClient.execute`):

* ``tenant_ops_total{tenant=,op=}`` / ``tenant_ops_failed_total``
* ``tenant_op_latency_ms{tenant=}`` (histogram: ``_count``/``_sum``)
* ``tenant_cache_hits_total{tenant=}`` / ``tenant_cache_misses_total``

These are *separate* families from the fleet-global ``ops_total`` /
``op_latency_ms`` — the chaos verifier's recovery-SLO gate sums every
series in a family, so tenant-labelled children on the existing
families would double-count each op.

The sampler only keeps a histogram's ``_count``/``_sum`` per sample,
which is enough for interval means but not interval quantiles.
:func:`install_tenant_telemetry` therefore registers one gauge per
(tenant × bucket bound) exposing the *cumulative* bucket count as a
``tenant_latency_bucket{tenant=,le=}`` series; interval deltas of
those series reconstruct a per-interval latency distribution, which
is how the fairness gate computes windowed victim p99
(:func:`repro.tenants.fairness.p99_timeline`).
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

from repro.telemetry.registry import Histogram, MetricsRegistry

#: Every family the tenant layer emits (dashboard + export tooling).
TENANT_FAMILIES = (
    "tenant_ops_total",
    "tenant_ops_failed_total",
    "tenant_op_latency_ms",
    "tenant_cache_hits_total",
    "tenant_cache_misses_total",
    "tenant_latency_bucket",
)

INF_LABEL = "+Inf"


def _bucket_reader(
    histogram: Histogram, tenant: str, index: int
) -> Callable[[], float]:
    key = (("tenant", tenant),)

    def read() -> float:
        counts = histogram._counts.get(key)
        if counts is None:
            return 0.0
        return float(sum(counts[: index + 1]))

    return read


def install_tenant_telemetry(
    metrics: MetricsRegistry,
    tenant_names: Sequence[str],
) -> Histogram:
    """Declare the tenant latency histogram and its bucket gauges.

    Idempotent per (tenant, bucket): re-registering replaces the
    callback with an equivalent one.  Returns the histogram so
    callers can read end-of-run quantiles directly.
    """
    histogram = metrics.histogram(
        "tenant_op_latency_ms", help="per-tenant client op latency",
    )
    bounds: Tuple[float, ...] = histogram.buckets
    for tenant in tenant_names:
        for index, bound in enumerate(bounds):
            metrics.register_gauge(
                "tenant_latency_bucket",
                _bucket_reader(histogram, tenant, index),
                tenant=tenant, le=repr(bound),
            )
        metrics.register_gauge(
            "tenant_latency_bucket",
            _bucket_reader(histogram, tenant, len(bounds)),
            tenant=tenant, le=INF_LABEL,
        )
    return histogram
