import pytest


@pytest.fixture(autouse=True)
def _fresh_sim_counters(reset_sim_counters):
    """Every tenants test starts from counter 1, and monkeypatch
    restores the module-level counters afterwards — so these tests
    neither depend on nor perturb the id sequences other test modules
    observe."""
    yield
