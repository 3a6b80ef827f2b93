"""Built-in chaos scenarios and the regression families.

Every scenario follows the same shape: ~1.5 s of steady state (the
verifier's SLO baseline), a fault window of a few seconds, then
recovery.  Times are relative to engine start, after system prewarm
and the TCP-connection prelude — see :mod:`repro.chaos.runner`.

:data:`FAMILIES` is the regression set, run one family at a time by
``repro chaos matrix --family F`` and gated against ``BENCH_<F>.json``.
Each family names its scenarios in run order and the run shape they
need; every scenario is judged by whichever of the seven verifier gates
its evidence enables.  Ids are numbered per run, so each record
reproduces alone: it does not depend on what ran before it.

The :data:`EXPECTED_FAIL` scenarios are deliberately broken recovery
paths the verifier *must* fail — e.g. ``ack-loss-noretry``, ACK loss
with coordinator redelivery disabled, which strands writers.  They are
the self-test that the verifier can actually catch a broken system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.chaos.runner import ChaosRunConfig
from repro.chaos.scenario import FaultSpec, Scenario
from repro.chaos.verifier import RecoverySLO
from repro.namespace.treegen import TreeSpec


@dataclass(frozen=True)
class Family:
    """A regression family: scenario names in run order + run shape."""

    scenarios: Tuple[str, ...]
    config: ChaosRunConfig = ChaosRunConfig()
    """The run shape, including whether detection is on."""


FAMILIES: Dict[str, Family] = {
    # One scenario per layer (FaaS kills, TCP fabric, HTTP gateway,
    # metastore shard, coordinator ACKs) plus the no-fault control,
    # with the online detector attached (gate 6).
    "chaos": Family(
        ("nn-kills", "tcp-sever", "gateway-brownout", "shard-outage",
         "ack-loss", "control"),
        ChaosRunConfig(detect=True),
    ),
    # The data plane: these get a DataNode fleet automatically.
    "datanode": Family(("datanode-kill", "disk-slow")),
    # Tenant fleets + the fairness gate.
    "tenants": Family(("noisy-neighbor", "noisy-neighbor-runaway")),
    # The overload family needs a *convoy-prone* workload — many
    # writers colliding on a small hot file set — which the default
    # chaos shape (24 mostly-reading clients over a ~500-file tree)
    # never produces: its brownouts recover the instant the fault
    # clears.
    "resilience": Family(
        ("overload-storm", "retry-storm-amplification",
         "metastable-brownout", "metastable-brownout-noshed"),
        ChaosRunConfig(
            clients=48,
            write_fraction=0.5,
            tree=TreeSpec(depth=1, dirs_per_dir=2, files_per_dir=8),
            slo=RecoverySLO(window_ms=8_000.0),
        ),
    ),
}

#: Scenarios whose verifier verdict is expected to be FAIL.
EXPECTED_FAIL: Tuple[str, ...] = (
    "ack-loss-noretry",
    "datanode-kill-norepair",
    "noisy-neighbor-runaway",
    "metastable-brownout-noshed",
)


def family_of(name: str) -> Optional[str]:
    """The family that lists scenario ``name``, or None."""
    return next(
        (family for family, spec in FAMILIES.items()
         if name in spec.scenarios),
        None,
    )


def builtin_scenarios() -> Dict[str, Scenario]:
    """Name → scenario for the whole built-in catalog."""
    scenarios = [
        Scenario(
            name="control",
            description="no-fault control: steady-state load only — the "
                        "detection gate requires zero incidents (any page "
                        "is a false positive)",
            faults=(),
        ),
        Scenario(
            name="nn-kills",
            description="§5.6: a warm NameNode dies every 900 ms for 4 s "
                        "(seeded random victims)",
            faults=(
                FaultSpec("namenode_kill", at_ms=1_500.0, duration_ms=4_000.0,
                          params={"interval_ms": 900.0, "policy": "random"}),
            ),
        ),
        Scenario(
            name="tcp-sever",
            description="fabric partition: every TCP connection severed, "
                        "re-severed every 1.5 s for 3.5 s",
            faults=(
                FaultSpec("tcp_sever", at_ms=1_500.0, duration_ms=3_500.0,
                          params={"repeat_ms": 1_500.0}),
            ),
        ),
        Scenario(
            name="gateway-brownout",
            description="HTTP gateway brownout (+latency, 25% shed) while "
                        "a sever pushes traffic onto the gateway",
            faults=(
                FaultSpec("tcp_sever", at_ms=1_400.0),
                FaultSpec("http_brownout", at_ms=1_500.0, duration_ms=3_000.0,
                          params={"extra_ms": 150.0, "jitter_ms": 100.0,
                                  "fail_p": 0.25}),
            ),
        ),
        Scenario(
            name="shard-outage",
            description="metastore shard 0 unavailable 1.2 s inside a "
                        "3.5 s 3x slow-store window",
            faults=(
                FaultSpec("store_slowdown", at_ms=1_500.0,
                          duration_ms=3_500.0, params={"factor": 3.0}),
                FaultSpec("shard_outage", at_ms=1_500.0, duration_ms=1_200.0,
                          params={"shard": 0}),
            ),
        ),
        Scenario(
            name="ack-loss",
            description="coordinator loses half of all INV ACKs for 3 s; "
                        "redelivery must unblock every writer",
            faults=(
                FaultSpec("ack_loss", at_ms=1_500.0, duration_ms=3_000.0,
                          params={"p": 0.5}),
            ),
        ),
        Scenario(
            name="ack-loss-noretry",
            description="broken recovery path: every ACK lost with "
                        "redelivery disabled — writers strand; the "
                        "verifier MUST fail this run",
            faults=(
                FaultSpec("ack_loss", at_ms=1_500.0, duration_ms=2_000.0,
                          params={"p": 1.0, "disable_retry": True}),
            ),
        ),
        Scenario(
            name="membership-flap",
            description="members flap out/in of the coordinator registry "
                        "under 20x-delayed death notifications",
            faults=(
                FaultSpec("watch_delay", at_ms=1_400.0, duration_ms=3_000.0,
                          params={"factor": 20.0}),
                FaultSpec("membership_flap", at_ms=1_500.0,
                          params={"flap_ms": 700.0}),
                FaultSpec("membership_flap", at_ms=2_600.0,
                          params={"flap_ms": 700.0}),
            ),
        ),
        Scenario(
            name="cold-storm",
            description="kills force re-provisioning while cold starts "
                        "run 4x slower",
            faults=(
                FaultSpec("cold_start_storm", at_ms=1_500.0,
                          duration_ms=3_500.0, params={"factor": 4.0}),
                FaultSpec("namenode_kill", at_ms=1_600.0, duration_ms=3_000.0,
                          params={"interval_ms": 800.0, "policy": "youngest"}),
            ),
        ),
        Scenario(
            name="capacity-crunch",
            description="cluster vCPU budget crushed to 8% with the fabric "
                        "severed — Appendix C churn territory",
            faults=(
                FaultSpec("capacity_crunch", at_ms=1_500.0,
                          duration_ms=3_000.0, params={"fraction": 0.08}),
                FaultSpec("tcp_sever", at_ms=1_600.0),
            ),
        ),
        Scenario(
            name="datanode-kill",
            description="2 of the DataNode fleet crash 400 ms apart; the "
                        "re-replication scanner must restore replication "
                        "factor within the SLO window",
            faults=(
                FaultSpec("datanode_kill", at_ms=2_000.0, duration_ms=1_000.0,
                          params={"count": 2, "interval_ms": 400.0}),
            ),
        ),
        Scenario(
            name="datanode-kill-norepair",
            description="broken recovery path: same kills with the "
                        "re-replication scanner dead — blocks stay "
                        "under-replicated; the verifier MUST fail this run",
            faults=(
                FaultSpec("datanode_kill", at_ms=2_000.0, duration_ms=1_000.0,
                          params={"count": 2, "interval_ms": 400.0,
                                  "disable_repair": True}),
            ),
        ),
        Scenario(
            name="disk-slow",
            description="every disk in rack0 runs 8x slower for 3 s — "
                        "pipelines crossing the rack drag, nothing dies",
            faults=(
                FaultSpec("disk_slow", at_ms=1_500.0, duration_ms=3_000.0,
                          params={"factor": 8.0, "rack": "rack0"}),
            ),
        ),
        Scenario(
            name="noisy-neighbor",
            description="multi-tenant: the 'hog' tenant floods (zero "
                        "think time) for 3.5 s; the QoS governor must cap "
                        "it so victim p99 and the Jain index recover "
                        "within the SLO window",
            faults=(
                FaultSpec("tenant_flood", at_ms=2_000.0, duration_ms=3_500.0,
                          params={"tenant": "hog", "think_ms": 0.0}),
            ),
        ),
        Scenario(
            name="noisy-neighbor-runaway",
            description="broken QoS path: the same flood with isolation "
                        "disabled — the governor dies and the flood never "
                        "clears; the verifier MUST fail this run",
            faults=(
                FaultSpec("tenant_flood", at_ms=2_000.0, duration_ms=3_500.0,
                          params={"tenant": "hog", "think_ms": 0.0,
                                  "disable_isolation": True}),
            ),
        ),
        Scenario(
            name="overload-storm",
            description="demand surge: every client thinks 50x faster for "
                        "3 s; deadlines, breakers, and the shedder must "
                        "keep goodput honest through the storm",
            faults=(
                FaultSpec("load_spike", at_ms=1_500.0, duration_ms=3_000.0,
                          params={"think_factor": 0.02}),
            ),
        ),
        Scenario(
            name="retry-storm-amplification",
            description="surge meets brownout: a 50x demand spike while "
                        "the store runs 12x slower — stragglers breed "
                        "resubmits; retry budgets, breakers, and deadline "
                        "caps must damp the amplification",
            faults=(
                FaultSpec("load_spike", at_ms=1_500.0, duration_ms=3_000.0,
                          params={"think_factor": 0.02}),
                FaultSpec("store_slowdown", at_ms=1_700.0, duration_ms=2_500.0,
                          params={"factor": 12.0}),
            ),
        ),
        Scenario(
            name="metastable-brownout",
            description="metastable overload: an 800x store brownout under "
                        "a 100x demand spike drives write convoys on the "
                        "hot file set — work for clients that already gave "
                        "up must be refused, not executed (gate 7: goodput "
                        "recovery, zero commits past deadline)",
            faults=(
                FaultSpec("store_slowdown", at_ms=1_500.0, duration_ms=3_500.0,
                          params={"factor": 800.0}),
                FaultSpec("load_spike", at_ms=1_600.0, duration_ms=3_300.0,
                          params={"think_factor": 0.01}),
            ),
        ),
        Scenario(
            name="metastable-brownout-noshed",
            description="broken resilience path: the same brownout with "
                        "enforcement latched off before the storm — "
                        "convoyed writes grind past their stamped "
                        "deadlines and commit anyway; the verifier MUST "
                        "fail this run",
            faults=(
                FaultSpec("disable_shedding", at_ms=1_000.0),
                FaultSpec("store_slowdown", at_ms=1_500.0, duration_ms=3_500.0,
                          params={"factor": 800.0}),
                FaultSpec("load_spike", at_ms=1_600.0, duration_ms=3_300.0,
                          params={"think_factor": 0.01}),
            ),
        ),
        Scenario(
            name="mixed",
            description="kitchen sink: kills + message loss + brownout "
                        "overlapping",
            faults=(
                FaultSpec("namenode_kill", at_ms=1_500.0, duration_ms=3_500.0,
                          params={"interval_ms": 1_100.0, "policy": "random"}),
                FaultSpec("tcp_drop", at_ms=2_000.0, duration_ms=2_500.0,
                          params={"p": 0.15}),
                FaultSpec("http_brownout", at_ms=2_500.0, duration_ms=2_000.0,
                          params={"extra_ms": 100.0, "fail_p": 0.1}),
            ),
        ),
    ]
    return {scenario.name: scenario for scenario in scenarios}


def get_scenario(name: str) -> Scenario:
    scenarios = builtin_scenarios()
    if name not in scenarios:
        raise KeyError(
            f"unknown scenario {name!r}; built-ins: {sorted(scenarios)}"
        )
    return scenarios[name]
