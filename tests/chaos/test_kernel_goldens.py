"""Golden determinism hashes for the kernel under the chaos engine.

The calendar-queue scheduler and every other kernel optimisation must
not change what a run produces: same seed, same ops and faults, bit
for bit, and the same executed event sequence unless the change means
to reschedule (cancelling a raced timer drops its step).  This pins the traced ``ack-loss`` regression
scenario to literal hashes — the tracer's streaming blake2b event hash,
the chaos engine's fault-log hash and the op records' outcome digest.
Any scheduler change that reorders, adds or drops even one event flips
the event hash; any change to fault timing flips the log hash; any op
that ends differently flips the outcome digest.

Every id comes from the run's own ``Environment`` (``next_id``), so
the run sees exactly what a fresh interpreter would — the condition
under which the goldens were recorded — wherever it sits in the suite.
"""

import pytest

from repro.chaos import ChaosRunConfig, RecoverySLO, run_scenario
from repro.chaos.scenarios import builtin_scenarios

pytestmark = [pytest.mark.chaos, pytest.mark.kernel, pytest.mark.slow]


GOLDEN_CONFIG = ChaosRunConfig(
    seed=0,
    clients=24,
    deployments=4,
    write_fraction=0.15,
    think_ms=40.0,
    telemetry_interval_ms=250.0,
    drain_ms=8_000.0,
    slo=RecoverySLO(window_ms=10_000.0),
)

#: The fault-log hash, op count and outcome digest are the global-heap
#: kernel's, reproduced bit for bit.  The event hash also sees every
#: kernel step, so it moves with the schedule (a cancelled timer is no
#: step); it may be rebaselined only while the other three hold.
GOLDEN_EVENT_HASH = "443655b6e00bf48e464e0d5be25c2f5c"
GOLDEN_LOG_HASH = "2275e4049ac65a812ef6bb753e569615"
GOLDEN_OPS_OK = 8268
GOLDEN_OUTCOME_DIGEST = "4939ade930decaecfce9259b3cf0516b"


def test_ack_loss_scenario_matches_golden_hashes():
    result = run_scenario(builtin_scenarios()["ack-loss"], GOLDEN_CONFIG)
    assert result.event_hash == GOLDEN_EVENT_HASH
    assert result.log_hash == GOLDEN_LOG_HASH
    assert result.ops_ok == GOLDEN_OPS_OK
    assert result.outcome_digest == GOLDEN_OUTCOME_DIGEST


def test_attached_idle_fleet_leaves_goldens_byte_identical():
    """A DataNode fleet that is constructed and attached but never
    started (no processes, no chunk-write draws) must be completely
    invisible: the same goldens, bit for bit.

    This pins the fleet's determinism contract — construction draws
    nothing from any shared stream and schedules nothing.
    """
    from dataclasses import replace

    config = replace(
        GOLDEN_CONFIG,
        datanodes=9,
        datanode_start=False,
        chunk_write_fraction=0.0,
    )
    result = run_scenario(builtin_scenarios()["ack-loss"], config)
    assert result.fleet is not None
    assert result.event_hash == GOLDEN_EVENT_HASH
    assert result.log_hash == GOLDEN_LOG_HASH
    assert result.ops_ok == GOLDEN_OPS_OK
    assert result.outcome_digest == GOLDEN_OUTCOME_DIGEST
