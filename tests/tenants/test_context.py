"""TenantSpec validation, namespace building, and the QoS governor."""

import pytest

from repro.sim import Environment
from repro.tenants import (
    TenantGovernor,
    TenantSpec,
    build_tenant_namespaces,
    chaos_tenants,
    default_tenants,
)

pytestmark = pytest.mark.tenant


# -- spec validation ----------------------------------------------------

def test_spec_defaults():
    spec = TenantSpec("acme")
    assert spec.subtree_root() == "/tenants/acme"
    assert spec.workload == "mixed"
    assert spec.demand_ops_per_ms() == pytest.approx(6 / 40.0)


def test_spec_rejects_bad_shapes():
    with pytest.raises(ValueError):
        TenantSpec("")
    with pytest.raises(ValueError):
        TenantSpec("a", workload="cryptomining")
    with pytest.raises(ValueError):
        TenantSpec("a", clients=0)
    with pytest.raises(ValueError):
        TenantSpec("a", weight=0.0)
    with pytest.raises(ValueError):
        TenantSpec("a", burst_on_ms=100.0)  # off-phase missing


def test_burst_duty_cycle_scales_demand():
    steady = TenantSpec("s", clients=4, think_ms=20.0)
    bursty = TenantSpec("b", clients=4, think_ms=20.0,
                        burst_on_ms=500.0, burst_off_ms=1_500.0)
    assert bursty.demand_ops_per_ms() == pytest.approx(
        0.25 * steady.demand_ops_per_ms()
    )


def test_builtin_casts_are_valid_and_disjoint():
    for specs in (default_tenants(), chaos_tenants()):
        roots = [spec.subtree_root() for spec in specs]
        assert len(set(roots)) == len(roots)


# -- namespace building -------------------------------------------------

def test_build_namespaces_disjoint_and_merged():
    specs = (
        TenantSpec("ml", workload="mltrain", dataset_files=16),
        TenantSpec("web", workload="mixed"),
    )
    merged, per_tenant = build_tenant_namespaces(specs, seed=7)
    assert set(per_tenant) == {"ml", "web"}
    ml, web = per_tenant["ml"], per_tenant["web"]
    assert all(path.startswith("/tenants/ml/") for path in ml.files)
    assert all(path.startswith("/tenants/web/") for path in web.files)
    assert len(ml.files) == 16
    assert "/tenants/ml/ckpt" in ml.directories
    assert set(merged.files) == set(ml.files) | set(web.files)
    assert "/tenants" in merged.directories


def test_build_namespaces_rejects_shared_subtree():
    specs = (
        TenantSpec("one", subtree="/shared"),
        TenantSpec("two", subtree="/shared"),
    )
    with pytest.raises(ValueError, match="share subtree"):
        build_tenant_namespaces(specs)


# -- the token-bucket governor ------------------------------------------

def _drain(env, gen):
    """Run one acquire() generator to completion on the sim clock."""
    proc = env.process(gen)
    env.run()
    return proc


def test_governor_burst_then_throttle():
    env = Environment()
    governor = TenantGovernor(env, {"t": 0.01}, burst_ms=200.0)  # 2 tokens
    _drain(env, governor.acquire("t"))
    _drain(env, governor.acquire("t"))
    assert env.now == 0.0  # burst allowance: no waiting
    _drain(env, governor.acquire("t"))
    # Third op had zero tokens: waits one full token time (1/rate).
    assert env.now == pytest.approx(100.0)
    assert governor.throttled["t"] == 1
    assert governor.throttled_ms["t"] == pytest.approx(100.0)


def test_governor_refills_while_idle():
    env = Environment()
    governor = TenantGovernor(env, {"t": 0.01}, burst_ms=100.0)  # 1 token
    _drain(env, governor.acquire("t"))

    def idle():
        yield env.timeout(100.0)

    _drain(env, idle())
    start = env.now
    _drain(env, governor.acquire("t"))
    assert env.now == start  # refilled during the idle gap


def test_governor_disabled_and_unknown_are_passthrough():
    env = Environment()
    governor = TenantGovernor(env, {"t": 0.001}, burst_ms=100.0)
    _drain(env, governor.acquire("nobody"))  # unknown tenant: no gate
    governor.enabled = False
    for _ in range(50):
        _drain(env, governor.acquire("t"))
    assert env.now == 0.0
    assert governor.throttled == {}


def test_governor_no_float_spin_at_large_now():
    """Regression: refill round-off must not strand acquire in a
    zero-sim-time loop once ``env.now`` is large enough that a ~1e-16
    wait underflows (now + wait == now)."""
    env = Environment()
    governor = TenantGovernor(env, {"t": 8 / 15.0}, burst_ms=250.0)

    def spin():
        yield env.timeout(5_000.0)
        for _ in range(500):
            yield from governor.acquire("t")

    env.process(spin())
    env.run()
    assert env.now > 5_000.0


def test_for_tenants_budgets_headroom():
    specs = (TenantSpec("a", clients=4, think_ms=20.0),)
    governor = TenantGovernor.for_tenants(Environment(), specs)
    assert governor.rates["a"] == pytest.approx(2.0 * 4 / 20.0)


def test_governor_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        TenantGovernor(Environment(), {"t": 0.0})
