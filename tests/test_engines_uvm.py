"""Property battery for the unified-memory engine family.

Four families of properties, each a simulated-time fact that must hold on
any machine:

* **Determinism** — the same seed produces a byte-identical timeline
  (interval-level fingerprint), for every prefetcher.
* **Conservation** — the page-table ledger balances: every byte moved
  host-to-device is accounted as migrated, every migrated byte is either
  still resident or was evicted, and every device-to-host byte is a
  claimed dirty write-back.
* **Monotonicity** — more device memory never causes more page faults
  (pure demand LRU is a stack algorithm), and the readahead prefetcher
  never slows a sequential app down.
* **Differential** — every UVM variant produces output bit-identical to
  the serial oracle on all six paper apps, and its timeline passes the
  full invariant suite.

The replay of a plan's memoized timeline, which every simulating engine
shares, is pinned in ``tests/test_engines_replay.py``.
"""

import pytest

from repro.apps import get_app
from repro.engines import (
    UVM_ENGINES,
    CpuSerialEngine,
    EngineConfig,
    GpuUvmEngine,
    UvmLearnedEngine,
    UvmReadaheadEngine,
)
from repro.engines.uvm import UvmSpec
from repro.units import KiB, MiB
from repro.verify.invariants import verify_run

PAPER_SIX = ("kmeans", "wordcount", "netflix", "opinion", "dna", "mastercard")
CONFIG = EngineConfig(chunk_bytes=256 * KiB)
DATA_BYTES = 1 * MiB
SEED = 7


def _fingerprint(trace):
    """Order-sensitive digest of a full timeline, meta included."""
    return tuple(
        (
            iv.track,
            iv.label,
            iv.start,
            iv.end,
            tuple(sorted((k, str(v)) for k, v in iv.meta.items())),
        )
        for iv in trace.intervals
    )


def _run(engine, app_name, n_bytes=DATA_BYTES, seed=SEED, config=CONFIG):
    app = get_app(app_name)
    data = app.generate(n_bytes=n_bytes, seed=seed)
    return app, data, engine.run(app, data, config)


class TestDeterminism:
    @pytest.mark.parametrize(
        "engine_cls", UVM_ENGINES, ids=lambda c: c.prefetch
    )
    def test_same_seed_same_timeline(self, engine_cls):
        a = _run(engine_cls(), "wordcount")[2]
        b = _run(engine_cls(), "wordcount")[2]
        assert a.sim_time == b.sim_time
        assert _fingerprint(a.trace) == _fingerprint(b.trace)
        assert a.metrics.notes["paging"] == b.metrics.notes["paging"]

    def test_different_data_different_timeline(self):
        a = _run(GpuUvmEngine(), "wordcount", seed=1)[2]
        b = _run(GpuUvmEngine(), "wordcount", seed=2)[2]
        # variable-length records: a different seed changes record sizes,
        # hence page population and fault timing
        assert _fingerprint(a.trace) != _fingerprint(b.trace)


class TestConservation:
    @pytest.mark.parametrize("app_name", PAPER_SIX)
    @pytest.mark.parametrize(
        "engine_cls", UVM_ENGINES, ids=lambda c: c.name
    )
    def test_page_byte_ledger(self, app_name, engine_cls):
        res = _run(engine_cls(), app_name)[2]
        paging = res.metrics.notes["paging"]
        assert res.metrics.bytes_h2d == paging["migrated_bytes"]
        assert (
            paging["migrated_bytes"]
            == paging["evicted_bytes"] + paging["resident_bytes"]
        )
        assert res.metrics.bytes_d2h == paging["writeback_bytes"]
        assert (
            paging["migrated_pages"]
            == paging["demand_pages"] + paging["prefetched_pages"]
        )

    def test_eviction_under_pressure(self):
        # a device memory far smaller than the dataset forces eviction
        spec = UvmSpec(
            page_bytes=16 * KiB, device_mem_bytes=128 * KiB, batch_pages=4
        )
        res = _run(GpuUvmEngine(spec=spec), "wordcount")[2]
        paging = res.metrics.notes["paging"]
        assert paging["evicted_pages"] > 0
        assert paging["resident_bytes"] <= 128 * KiB
        assert res.metrics.bytes_h2d == paging["migrated_bytes"]


class TestMonotonicity:
    def test_more_memory_never_more_faults(self):
        """Pure demand paging with LRU is a stack algorithm: growing the
        device memory can only remove faults, never add them. Needs page
        *reuse* for capacity to matter, so this uses the two-pass
        mastercard app — the second pass refaults whatever was evicted."""
        spec_base = dict(page_bytes=16 * KiB, prefetch_hit=0.0, batch_pages=4)
        faults = []
        for mem in (128 * KiB, 256 * KiB, 512 * KiB, 1 * MiB, 2 * MiB):
            spec = UvmSpec(device_mem_bytes=mem, **spec_base)
            res = _run(GpuUvmEngine(spec=spec), "mastercard")[2]
            faults.append(res.metrics.notes["paging"]["demand_pages"])
        assert faults == sorted(faults, reverse=True)
        assert faults[0] > faults[-1]  # the pressure range actually bites

    @pytest.mark.parametrize("app_name", PAPER_SIX)
    def test_readahead_never_slower(self, app_name):
        plain = _run(GpuUvmEngine(), app_name)[2]
        ra = _run(UvmReadaheadEngine(), app_name)[2]
        assert ra.sim_time <= plain.sim_time
        assert ra.metrics.notes["faults"] <= plain.metrics.notes["faults"]

    @pytest.mark.parametrize("app_name", PAPER_SIX)
    def test_learned_never_slower(self, app_name):
        plain = _run(GpuUvmEngine(), app_name)[2]
        le = _run(UvmLearnedEngine(), app_name)[2]
        assert le.sim_time <= plain.sim_time


class TestDifferential:
    @pytest.mark.parametrize("app_name", PAPER_SIX)
    @pytest.mark.parametrize(
        "engine_cls", UVM_ENGINES, ids=lambda c: c.name
    )
    def test_output_matches_oracle_and_invariants_hold(
        self, app_name, engine_cls
    ):
        app, data, res = _run(engine_cls(), app_name)
        ref = CpuSerialEngine().run(app, data, CONFIG)
        assert app.outputs_equal(ref.output, res.output)
        report = verify_run(res, CONFIG)
        assert report.ok, report.summary()
