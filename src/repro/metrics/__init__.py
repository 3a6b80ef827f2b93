"""Measurement: op records, throughput timelines, latency CDFs, cost.

The cost models implement the paper's three pricing schemes (Fig. 9):

* **pay-per-use** — AWS Lambda prices, $0.0000166667 per GB-second
  billed at 1 ms granularity plus $0.20 per million requests; a
  NameNode is billed only while actively serving a request;
* **simplified** — NameNodes incur cost for their entire provisioned
  lifetime (like VMs), which roughly doubles λFS' cost;
* **VM (serverful)** — a fixed cluster billed per vCPU-second for the
  whole run, calibrated so 512 vCPUs for 300 s cost $2.50 as in the
  paper.
"""

from repro.metrics.cost import (
    LAMBDA_GB_SECOND_USD,
    LAMBDA_PER_REQUEST_USD,
    VM_VCPU_SECOND_USD,
    lambda_cost,
    simplified_cost,
    vm_cost,
)
from repro.metrics.recorder import MetricsRecorder, OpRecord, percentile

__all__ = [
    "LAMBDA_GB_SECOND_USD",
    "LAMBDA_PER_REQUEST_USD",
    "MetricsRecorder",
    "OpRecord",
    "VM_VCPU_SECOND_USD",
    "lambda_cost",
    "percentile",
    "simplified_cost",
    "vm_cost",
]
