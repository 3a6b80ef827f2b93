"""The bursty tenant loop at an off-phase residue under half an ulp.

A client starts at t = 6000 ms with a 250/250 ms on/off cycle and a
phase of a third of the period.  Its first op takes exactly
``period - phase`` ms, so when it returns, the off-phase sleep to the
next on-window is 3.4e-13 ms: less than half an ulp of the clock
(9.1e-13 ms at 6333 ms).  ``env.timeout(wait)`` would land on the same
instant forever; the client must issue its next op instead.  (The
default cast in the ``control`` scenario reaches the same kind of
residue, 9.09e-13 ms at t = 8652.65958411773 ms, which is how the spin
was found.)
"""

import pytest

from repro.namespace.treegen import TreeSpec
from repro.sim import Environment
from repro.tenants import TenantSpec
from repro.workloads.multitenant import MultiTenantWorkload

pytestmark = pytest.mark.tenant

START_MS = 6000.0
SPEC = TenantSpec(
    "bursty", workload="readstorm", clients=3, think_ms=0.0,
    burst_on_ms=250.0, burst_off_ms=250.0,
    tree=TreeSpec(depth=1, dirs_per_dir=1, files_per_dir=2),
)
PERIOD = SPEC.burst_on_ms + SPEC.burst_off_ms
PHASE = (1 / SPEC.clients) * PERIOD  # client 1's phase, as the loop has it
OP_MS = PERIOD - PHASE


class Response:
    ok = True


class FixedLatencyClient:
    """Every op takes exactly ``OP_MS``; records when each one starts."""

    def __init__(self, env):
        self.env = env
        self.starts = []

    def _op(self, *_args):
        self.starts.append(self.env.now)
        yield self.env.timeout(OP_MS)
        return Response()

    read_file = stat = ls = _op


def test_off_phase_residue_issues_the_op_instead_of_spinning():
    # The configuration does reach the residue: client 1 is back in
    # its off phase, and the wake instant rounds to the same instant.
    back = START_MS + OP_MS
    position = (back - START_MS + PHASE) % PERIOD
    wait = PERIOD - position
    assert position >= SPEC.burst_on_ms
    assert 0.0 < wait and back + wait == back

    env = Environment(initial_time=START_MS)
    workload = MultiTenantWorkload(env, [SPEC], seed=0)
    clients = [FixedLatencyClient(env) for _ in range(SPEC.clients)]
    done = env.process(workload.run(
        workload.partition_clients(clients), 2 * PERIOD
    ))
    # A bounded step budget: a regression spins on zero-advance
    # timeouts, which must fail here rather than hang the suite.
    for _ in range(10_000):
        if done.triggered or env.peek() == float("inf"):
            break
        env.step()
    assert done.triggered, "the tenant loop stopped advancing the clock"
    # Client 1 returns at the on-window edge and goes straight on.
    assert clients[1].starts[:2] == [START_MS, START_MS + OP_MS]
    assert workload.counts["bursty"].issued == sum(
        len(client.starts) for client in clients
    )
