"""Fault-injection matrix: every FaultPlan primitive x pipelined engine.

For each cell the run must either complete or raise a *typed* ReproError
subclass; completed runs must match the serial-CPU oracle bit-for-bit and
pass the trace invariants. A second half covers the degradation policies
(retry/backoff, ring shrink, engine fallback) and the chaos sweep's
determinism contract.
"""

import pytest

from repro.apps import WordCountApp
from repro.engines import (
    BigKernelEngine,
    CpuSerialEngine,
    EngineConfig,
    GpuDoubleBufferEngine,
    GpuUvmEngine,
)
from repro.errors import (
    DmaFaultError,
    FaultConfigError,
    PinnedMemoryExceeded,
    ReproError,
)
from repro.faults import (
    FaultInjector,
    FaultPlan,
    default_fault_grid,
    run_chaos,
)
from repro.units import MiB
from repro.verify.invariants import verify_run

CHUNK = 256 * 1024

PRIMITIVE_PLANS = [
    FaultPlan(name="pcie-degrade").pcie.degrade(gbps=2.0),
    FaultPlan(name="pcie-degrade-late").pcie.degrade(gbps=1.0, at=2e-4),
    FaultPlan(name="dma-retry").dma.error(chunk=1, retries=2),
    FaultPlan(name="dma-retry-d2h").dma.error(chunk=0, retries=1, direction="d2h"),
    FaultPlan(name="assembly-stall").assembly.stall(ms=0.05),
    FaultPlan(name="assembly-stall-one").assembly.stall(ms=0.1, chunk=2),
    FaultPlan(name="pinned-pressure").pinned.deny(after_bytes=1 * MiB),
]

ENGINES = [GpuDoubleBufferEngine, BigKernelEngine, GpuUvmEngine]


@pytest.fixture(scope="module")
def workload():
    app = WordCountApp()
    data = app.generate(n_bytes=1 * MiB, seed=7)
    ref = CpuSerialEngine().run(app, data, EngineConfig(chunk_bytes=CHUNK))
    return app, data, ref


class TestPrimitiveMatrix:
    """Every primitive x {gpu_double, bigkernel}: complete-or-typed-error,
    differential vs cpu_serial, invariants."""

    @pytest.mark.parametrize("plan", PRIMITIVE_PLANS, ids=lambda p: p.name)
    @pytest.mark.parametrize("engine_cls", ENGINES, ids=lambda e: e.name)
    def test_cell(self, workload, engine_cls, plan):
        app, data, ref = workload
        cfg = EngineConfig(chunk_bytes=CHUNK, faults=plan)
        try:
            res = engine_cls().run(app, data, cfg)
        except ReproError:
            return  # a typed failure is an acceptable outcome
        assert app.outputs_equal(ref.output, res.output)
        # an active plan must force the DES, so a trace always exists
        assert res.trace is not None
        report = verify_run(res, cfg)
        assert report.ok, report.summary()

    @pytest.mark.parametrize("engine_cls", ENGINES, ids=lambda e: e.name)
    def test_faulted_slower_than_clean(self, workload, engine_cls):
        app, data, _ = workload
        cfg = EngineConfig(chunk_bytes=CHUNK)
        clean = engine_cls().run(app, data, cfg)
        plan = FaultPlan(name="slow").pcie.degrade(gbps=1.0)
        faulted = engine_cls().run(app, data, cfg.with_(faults=plan))
        assert faulted.sim_time > clean.sim_time


class TestDmaRetry:
    def test_retry_intervals_recorded(self, workload):
        app, data, _ = workload
        plan = FaultPlan(name="retry").dma.error(chunk=1, retries=2)
        res = BigKernelEngine().run(
            app, data, EngineConfig(chunk_bytes=CHUNK, faults=plan)
        )
        retries = [iv for iv in res.trace if iv.label.endswith("-retry")]
        assert len(retries) == 2
        for iv in retries:
            assert iv.meta["retry"] is True
            assert iv.meta["discarded"] > 0
            # retried bytes must NOT count toward byte conservation
            assert "nbytes" not in iv.meta
        assert [iv.meta["attempt"] for iv in retries] == [1, 2]

    def test_fatal_dma_raises_typed_error(self, workload):
        app, data, _ = workload
        plan = FaultPlan(name="fatal").dma.error(chunk=0, retries=99)
        with pytest.raises(DmaFaultError):
            BigKernelEngine().run(
                app, data, EngineConfig(chunk_bytes=CHUNK, faults=plan)
            )

    def test_retry_stats_reported(self, workload):
        app, data, _ = workload
        plan = FaultPlan(name="retry").dma.error(chunk=1, retries=3)
        res = GpuDoubleBufferEngine().run(
            app, data, EngineConfig(chunk_bytes=CHUNK, faults=plan)
        )
        stats = res.metrics.notes["fault_stats"]
        assert stats["retries_injected"] == 3
        assert stats["fatal_dmas"] == 0


class TestUvmUnderDegrade:
    """pcie.degrade against the demand-paging path: a slow link stretches
    every fault-service migration, but must never corrupt data or break
    the page-byte ledger."""

    def test_degrade_slows_migrations_not_volume(self, workload):
        app, data, ref = workload
        cfg = EngineConfig(chunk_bytes=CHUNK)
        engine = GpuUvmEngine()
        clean = engine.run(app, data, cfg)
        plan = FaultPlan(name="uvm-degrade").pcie.degrade(gbps=1.0)
        faulted = engine.run(app, data, cfg.with_(faults=plan))

        assert faulted.sim_time > clean.sim_time
        # a degraded link changes timing, never the migrated volume
        assert faulted.metrics.bytes_h2d == clean.metrics.bytes_h2d
        assert (
            faulted.metrics.notes["paging"] == clean.metrics.notes["paging"]
        )
        assert app.outputs_equal(ref.output, faulted.output)
        report = verify_run(faulted, cfg.with_(faults=plan))
        assert report.ok, report.summary()

    def test_degrade_mid_run_only_stretches_tail(self, workload):
        app, data, _ = workload
        cfg = EngineConfig(chunk_bytes=CHUNK)
        engine = GpuUvmEngine()
        clean = engine.run(app, data, cfg)
        late = FaultPlan(name="late").pcie.degrade(gbps=1.0, at=clean.sim_time)
        early = FaultPlan(name="early").pcie.degrade(gbps=1.0, at=0.0)
        res_late = engine.run(app, data, cfg.with_(faults=late))
        res_early = engine.run(app, data, cfg.with_(faults=early))
        # degrading after the last migration is a no-op; from t=0 it is not
        assert res_late.sim_time == clean.sim_time
        assert res_early.sim_time > clean.sim_time


class TestDegradationPolicies:
    def test_ring_shrink_under_pinned_pressure(self, workload):
        app, data, ref = workload
        plan = FaultPlan(name="shrink").pinned.deny(after_bytes=100 * 1024)
        cfg = EngineConfig(chunk_bytes=CHUNK, faults=plan)
        res = BigKernelEngine().run(app, data, cfg)
        assert res.engine == "bigkernel"  # degraded, not replaced
        deg = res.metrics.notes["degradations"]
        assert deg["ring_shrunk_to"] == 2
        assert deg["blocks_shrunk_to"] == 1
        assert app.outputs_equal(ref.output, res.output)

    def test_fallback_to_gpu_double(self, workload):
        app, data, ref = workload
        plan = FaultPlan(name="fallback").pinned.deny(after_bytes=16 * 1024)
        cfg = EngineConfig(chunk_bytes=CHUNK, faults=plan)
        res = BigKernelEngine().run(app, data, cfg)
        assert res.engine == "gpu_double"
        assert res.metrics.notes["degraded_from"] == "bigkernel"
        assert "pinned" in res.metrics.notes["degraded_reason"]
        assert app.outputs_equal(ref.output, res.output)

    def test_clean_run_never_degrades(self, workload):
        app, data, _ = workload
        res = BigKernelEngine().run(app, data, EngineConfig(chunk_bytes=CHUNK))
        assert "degradations" not in res.metrics.notes
        assert "degraded_from" not in res.metrics.notes
        assert "fault_stats" not in res.metrics.notes

    def test_pinned_deny_without_faults_still_raises(self):
        # policy engages only under an active plan; a bare allocator denial
        # stays a hard typed error
        from repro.hw.pinned import PinnedAllocator

        alloc = PinnedAllocator(1 * MiB, deny_after_bytes=1024)
        with pytest.raises(PinnedMemoryExceeded):
            alloc.alloc(4096, "probe")


class TestDslValidation:
    def test_bad_gbps(self):
        with pytest.raises(FaultConfigError):
            FaultPlan().pcie.degrade(gbps=0)

    def test_bad_retries(self):
        with pytest.raises(FaultConfigError):
            FaultPlan().dma.error(chunk=0, retries=0)

    def test_bad_direction(self):
        with pytest.raises(FaultConfigError):
            FaultPlan().dma.error(chunk=0, retries=1, direction="sideways")

    def test_bad_stall(self):
        with pytest.raises(FaultConfigError):
            FaultPlan().assembly.stall(ms=-1.0)

    def test_bad_deny(self):
        with pytest.raises(FaultConfigError):
            FaultPlan().pinned.deny(after_bytes=-1)

    def test_plan_is_immutable_and_hashable(self):
        p = FaultPlan(name="a").pcie.degrade(gbps=2.0)
        q = p.dma.error(chunk=0, retries=1)
        assert len(p.events) == 1 and len(q.events) == 2  # builder copies
        assert hash(p) != hash(q)
        assert p == FaultPlan(name="a").pcie.degrade(gbps=2.0)

    def test_injector_rejects_garbage(self):
        from repro.faults.inject import as_injector

        with pytest.raises(TypeError):
            as_injector("not a plan")
        assert as_injector(None) is None
        inj = as_injector(FaultPlan().pcie.degrade(gbps=2.0))
        assert isinstance(inj, FaultInjector)
        assert as_injector(inj) is inj


class TestChaosSweep:
    def test_default_grid_size(self):
        plans = default_fault_grid()
        assert len(plans) >= 3
        assert len({p.name for p in plans}) == len(plans)

    def test_quick_sweep_deterministic(self):
        a = run_chaos(quick=True)
        b = run_chaos(quick=True)
        assert a.ok, a.summary()
        assert a.fingerprint() == b.fingerprint()
        assert a.to_json() == b.to_json()
        # >= 3 faults x >= 2 engines (ISSUE acceptance grid)
        assert len(a.cells) >= 6
        assert len({c.engine for c in a.cells}) >= 2
        assert len({c.plan for c in a.cells}) >= 3

    def test_quick_sweep_fingerprint_is_pinned(self):
        """The ``chaos --quick`` report, byte for byte: any change to the
        grid, the runs or the judge that moves one cell moves this."""
        assert run_chaos(quick=True).fingerprint() == (
            "cd6f5e462916d7071d10a2d56da08d8023496061b83c4ad2ad2fa0c6699e68f4"
        )

    def test_seed_changes_fingerprint(self):
        a = run_chaos(quick=True, seed=7)
        b = run_chaos(quick=True, seed=8)
        assert a.fingerprint() != b.fingerprint()

    def test_each_block_run_computes_its_own_pass(self, functional_passes):
        """The clean run and every faulted run of a block run on their own
        dataset of the recipe, so each computes its own functional pass
        and the check against the oracle sees every plan's output (the
        serial oracle computes its output without one)."""
        plans = default_fault_grid(7)[:2]
        report = run_chaos(
            quick=True,
            data_bytes=256 * 1024,
            plans=plans,
            engines=[GpuDoubleBufferEngine(), BigKernelEngine()],
        )
        assert report.ok, report.summary()
        assert functional_passes == ["wordcount"] * (2 * (1 + len(plans)))
