"""Suite-wide fixtures and Hypothesis profiles."""

import gc

import pytest
from hypothesis import settings

#: CI's larger budget for property tests that take their example count
#: from the profile (``--hypothesis-profile=ci``).
settings.register_profile(
    "ci",
    max_examples=5 * settings.get_profile("default").max_examples,
    deadline=None,
)


@pytest.fixture(autouse=True)
def _isolated_history(tmp_path, monkeypatch):
    """Point default run-history recording at a per-test database.

    Recording is automatic (and silent), so without this every CLI
    test would append forensics rows to the developer's real
    ``.repro-cache/history.db``.  Tests that want to *read* what was
    recorded use this same path via :func:`repro.obs.default_db_path`.
    """
    monkeypatch.setenv("REPRO_HISTORY_DB", str(tmp_path / "history.db"))


@pytest.fixture(autouse=True)
def _collector_left_enabled():
    """Fail any test after which the cyclic garbage collector is off.

    Fleet set-up pauses the collector (``repro.core.collector_paused``);
    a pause leaked on an error path would leave it off for the rest of
    the process.  The collector is switched back on either way, so only
    the test that leaked it fails.
    """
    yield
    enabled = gc.isenabled()
    gc.enable()
    assert enabled, "the test left the cyclic garbage collector disabled"
