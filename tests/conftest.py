"""Shared fixtures: keep the persistent run cache out of the repo.

``sweep(cache=True)`` (and the ``sweep`` CLI) write to the on-disk tier
(``repro.bench.sweep.DiskCache``), whose default root is ``.repro-cache``
under the current directory. Point it at a session-scoped temp dir so test
runs are hermetic — no cross-run reuse, nothing left in the working tree.
Tests that exercise the disk tier explicitly override ``REPRO_CACHE_DIR``
themselves with ``monkeypatch``.
"""

import pytest


@pytest.fixture(autouse=True, scope="session")
def _isolated_disk_cache(tmp_path_factory):
    cache_root = tmp_path_factory.mktemp("repro-cache")
    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_CACHE_DIR", str(cache_root))
    yield
    mp.undo()


@pytest.fixture
def functional_passes(monkeypatch):
    """The app name of every functional pass run during the test, one entry
    per ``repro.engines.base._run_passes`` call."""
    from repro.engines import base

    passes = []
    original = base._run_passes

    def counted(app, data, units_per_chunk):
        passes.append(app.name)
        return original(app, data, units_per_chunk)

    monkeypatch.setattr(base, "_run_passes", counted)
    return passes
