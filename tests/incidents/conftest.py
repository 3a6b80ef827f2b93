"""Shared fixtures for the incidents suite.

``_hermetic_rulesets`` (autouse) snapshots the module-level ruleset
registry so a test that registers a custom ruleset cannot leak it into
the rest of the session.
"""

import pytest

from repro.incidents import rules as rules_mod


@pytest.fixture(autouse=True)
def _hermetic_rulesets():
    snapshot = dict(rules_mod.RULESETS)
    yield
    rules_mod.RULESETS.clear()
    rules_mod.RULESETS.update(snapshot)
