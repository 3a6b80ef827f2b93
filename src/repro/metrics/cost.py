"""Monetary cost models (Figure 9, §5.2.5).

``lambda_cost`` bills NameNodes only while they actively serve
requests, at AWS Lambda's published prices.  ``simplified_cost``
bills provisioned lifetime (the "λFS (Simplified)" curve).
``vm_cost`` bills a serverful cluster for the whole run, calibrated
against the paper's numbers (512 vCPUs for the 300 s workload =
$2.50).
"""

from __future__ import annotations

from typing import Iterable

LAMBDA_GB_SECOND_USD = 0.0000166667
"""AWS Lambda price per GB-second, billed at 1 ms granularity [5]."""

LAMBDA_PER_REQUEST_USD = 0.20 / 1_000_000
"""AWS Lambda price per request ($0.20 per 1M)."""

VM_VCPU_SECOND_USD = 2.50 / (300.0 * 512.0)
"""Per-vCPU-second price of the serverful cluster, solved from the
paper's Figure 9: the 512-vCPU HopsFS cluster cost $2.50 over 300 s."""


def lambda_cost(
    busy_ms_by_instance: Iterable[float],
    requests: int,
    ram_gb: float,
) -> float:
    """Pay-per-use cost: busy GB-seconds plus per-request charges."""
    busy_seconds = sum(busy_ms_by_instance) / 1_000.0
    return (
        busy_seconds * ram_gb * LAMBDA_GB_SECOND_USD
        + requests * LAMBDA_PER_REQUEST_USD
    )


def simplified_cost(
    provisioned_ms_by_instance: Iterable[float],
    requests: int,
    ram_gb: float,
) -> float:
    """Provisioned-lifetime cost ("λFS (Simplified)" in Figure 9)."""
    provisioned_seconds = sum(provisioned_ms_by_instance) / 1_000.0
    return (
        provisioned_seconds * ram_gb * LAMBDA_GB_SECOND_USD
        + requests * LAMBDA_PER_REQUEST_USD
    )


def vm_cost(vcpus: float, duration_ms: float) -> float:
    """Serverful cluster cost for the whole run."""
    return vcpus * (duration_ms / 1_000.0) * VM_VCPU_SECOND_USD
