"""The agile auto-scaling model of Figure 6 (§3.4).

Two knobs control the degree of scale-out:

* **fine-grained** — the HTTP-TCP replacement probability: each TCP
  RPC is replaced by an HTTP RPC with probability *p* (empirically
  p ≤ 1 % performs best), so the FaaS platform keeps seeing a load
  signal proportional to traffic;
* **coarse-grained** — the per-instance ``ConcurrencyLevel``: how
  many concurrent HTTP RPCs one instance absorbs before the platform
  provisions another.

The expected number of NameNodes follows Figure 6's equation;
``LambdaFS._desired_namenodes`` clips it at the cluster's vCPU bound.
"""

from __future__ import annotations


def desired_scale(num_deployments: int, replace_probability: float, alpha: float) -> float:
    """Expected scale-out: ``NumDeployments + TcpHttpReplace% × α``.

    ``alpha`` encodes the load level (requests/sec and concurrency).
    Must be ≥ the deployment count, which also determines how the
    namespace is partitioned.
    """
    if num_deployments < 1:
        raise ValueError("NumDeployments must be >= 1")
    if not 0.0 <= replace_probability <= 1.0:
        raise ValueError("replacement probability must be in [0, 1]")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    return num_deployments + replace_probability * alpha

