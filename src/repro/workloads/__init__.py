"""Workload generators used by the evaluation (§5).

* :class:`SpotifyWorkload` — the industrial workload: the Table 2
  operation mix driven at a bursty rate drawn from a Pareto(α=2)
  distribution every 15 s, with unfinished operations rolling over
  (the modified hammer-bench of §5.2.1).
* :mod:`repro.workloads.micro` — the client-driven and resource
  scaling microbenchmarks of §5.3 (read/ls/stat/create/mkdir).
* :mod:`repro.workloads.treetest` — IndexFS' tree-test (§5.7):
  mknod writes followed by random getattr reads.
* :mod:`repro.workloads.replay` — replay recorded audit-log traces
  against any client (the paper's workload is synthesized from such
  traces; users with real ones can replay them directly).
* :mod:`repro.workloads.multitenant` — N tenants with distinct op
  mixes (its ``mltrain`` archetype is a read/stat/create mix over a
  flat dataset directory), think times, and burst shapes sharing one
  λFS (the driver behind ``repro tenants`` and the noisy-neighbor
  chaos scenarios).

The last is imported from its submodule, not re-exported here: the
multi-tenant driver pulls in :mod:`repro.tenants`, which no
single-tenant run needs.
"""

from repro.workloads.micro import MicroBenchmark, MicroResult
from repro.workloads.replay import TraceRecord, TraceReplayer, load_trace, parse_trace
from repro.workloads.spotify import SPOTIFY_MIX, SpotifyConfig, SpotifyWorkload
from repro.workloads.treetest import TreeTest, TreeTestConfig

__all__ = [
    "MicroBenchmark",
    "MicroResult",
    "SPOTIFY_MIX",
    "SpotifyConfig",
    "SpotifyWorkload",
    "TraceRecord",
    "TraceReplayer",
    "TreeTest",
    "TreeTestConfig",
    "load_trace",
    "parse_trace",
]
