"""Tests for the closed-form analytic predictor (repro.analytic).

The heavyweight validation lives in ``verify --analytic`` (full matrix +
fuzzed geometries vs the DES) and the calibration pins; these tests cover
the package's contracts: bound-family gating, scalar/vector equivalence,
ranking tie-breaks, grid generation, engine resolution, report rendering,
and the hardware presets.
"""

import numpy as np
import pytest

from repro.analytic import (
    GRID_FIELDS,
    PREDICTABLE_ENGINES,
    pipeline_bounds,
    predict_grid,
    predict_run,
    resolve_engine,
    run_report,
    suggest_grid,
)
from repro.apps import ALL_APPS, get_app
from repro.engines import (
    BigKernelEngine,
    CpuSerialEngine,
    EngineConfig,
    GpuDoubleBufferEngine,
)
from repro.errors import ReproError
from repro.hw.spec import DEFAULT_HARDWARE, HW_PRESETS, get_hardware
from repro.kernelc.analysis import kernel_intensity
from repro.units import MiB


@pytest.fixture(scope="module")
def workload():
    app = get_app("wordcount")
    return app, app.generate(n_bytes=2 * MiB, seed=7)


@pytest.fixture(scope="module")
def writer_workload():
    app = get_app("kmeans")
    return app, app.generate(n_bytes=2 * MiB, seed=7)


class TestPipelineBounds:
    """Gating and shape contracts of the max-plus bound family."""

    T = {s: 1.0 for s in ("A", "S", "X", "C", "WB", "SC", "d_addr")}

    def _bounds(self, n=8, depth=3, workers=2, t=None, u=None):
        t = t or dict(self.T)
        u = u or dict(t)
        return pipeline_bounds(
            t, u, n=n, n_tail=0, depth=depth, per_pass=n, passes=1,
            cpu_workers=workers,
        )

    def test_single_chunk_collapses_to_serial_chain(self):
        total, bounds, _ = self._bounds(n=1, depth=2)
        # one chunk: the staircase from A through SC is the whole run
        assert total == pytest.approx(6.0)
        # multi-chunk-only bounds must be gated off, not contaminate
        assert bounds["st_A_C"] == -np.inf
        assert bounds["ring"] == -np.inf

    def test_ring_bound_gated_below_one_revolution(self):
        _, bounds, _ = self._bounds(n=3, depth=4)
        assert bounds["ring"] == -np.inf

    def test_cpu_bound_gated_on_workers(self):
        _, multi, _ = self._bounds(workers=2)
        _, single, _ = self._bounds(workers=1)
        assert multi["cpu"] == -np.inf
        assert single["cpu"] > 0

    def test_total_is_max_of_applicable_bounds(self):
        total, bounds, _ = self._bounds()
        applicable = [v for v in bounds.values() if v != -np.inf]
        assert total == max(applicable)

    def test_vectorized_matches_scalar(self):
        ns = np.array([1, 2, 5, 17])
        t = {s: np.full(4, v) for s, v in self.T.items()}
        total_vec, _, _ = pipeline_bounds(
            t, t, n=ns, n_tail=np.zeros(4, dtype=int), depth=np.full(4, 3),
            per_pass=ns, passes=np.ones(4, dtype=int),
            cpu_workers=np.full(4, 2),
        )
        for i, n in enumerate(ns):
            total_i, _, _ = self._bounds(n=int(n))
            assert total_vec[i] == total_i


class TestPredictRun:
    def test_bigkernel_prediction_matches_engine(self, workload):
        app, data = workload
        cfg = EngineConfig(chunk_bytes=256 * 1024, functional=False)
        pred = predict_run(app, data, cfg, engine="bigkernel")
        des = BigKernelEngine().run(app, data, cfg.with_(fastpath=False))
        assert pred.sim_time == pytest.approx(des.sim_time, rel=1e-12)
        assert pred.n_chunks == des.metrics.n_chunks

    def test_closed_form_engines_price_exactly(self):
        # one timing model per engine: the unpipelined engines have no
        # bound family to close, so the prediction is their sim_time
        cells = 0
        for cls in ALL_APPS:
            app = cls()
            for size in (512 * 1024, 2 * MiB):
                data = app.generate(n_bytes=size, seed=7)
                for chunk_kib in (64, 256, 1024):
                    for blocks in (8, 16):
                        cfg = EngineConfig(
                            chunk_bytes=chunk_kib * 1024,
                            num_blocks=blocks,
                            functional=False,
                        )
                        for name in ("cpu_serial", "cpu_mt", "gpu_single"):
                            pred = predict_run(app, data, cfg, engine=name)
                            run = resolve_engine(name).run(app, data, cfg)
                            assert pred.sim_time == run.sim_time, (
                                app.name, size, chunk_kib, blocks, name
                            )
                            cells += 1
        assert cells == 252

    def test_writer_app_has_writeback_occupancy(self, writer_workload):
        app, data = writer_workload
        pred = predict_run(app, data, engine="bigkernel")
        assert pred.stage_occupancy["write_transfer"] > 0
        assert pred.bottleneck in pred.stage_occupancy

    def test_overlap_fraction_bounded(self, workload):
        app, data = workload
        for name in PREDICTABLE_ENGINES:
            pred = predict_run(app, data, engine=name)
            assert 0.0 <= pred.overlap_fraction <= 1.0, name

    def test_engine_instance_accepted(self, workload):
        app, data = workload
        by_name = predict_run(app, data, engine="gpu_double")
        by_inst = predict_run(app, data, engine=GpuDoubleBufferEngine())
        assert by_name.sim_time == by_inst.sim_time

    def test_unknown_engine_rejected(self, workload):
        app, data = workload
        with pytest.raises(ReproError):
            predict_run(app, data, engine="gpu_uvm")

    def test_resolve_engine_accepts_stock_instances(self):
        assert resolve_engine("cpu_serial").name == CpuSerialEngine.name
        eng = BigKernelEngine()
        assert resolve_engine(eng) is eng


class TestPredictGrid:
    # compute_threads and chunk_bytes both move the pattern sampler's
    # geometry, so the scalar path re-samples at every point
    GRID = {
        "chunk_bytes": [128 * 1024, 512 * 1024],
        "compute_threads": [64, 256],
        "num_blocks": [8, 16],
        "ring_depth": [2, 3],
    }

    @pytest.mark.parametrize(
        "engine", PREDICTABLE_ENGINES + ("bigkernel_multigpu4_shared",)
    )
    def test_grid_matches_scalar_pointwise(self, engine):
        """The grid is the point model: its two approximations (one pattern
        sample per grid, no allocator run per point) hold at every point
        of every app, and it prices each point bit for bit as
        ``predict_run`` does."""
        base = EngineConfig(functional=False)
        for cls in ALL_APPS:
            app = cls()
            data = app.generate(n_bytes=1 * MiB, seed=7)
            gp = predict_grid(app, data, self.GRID, base, engine=engine)
            assert gp.n_points == 16
            for i in range(gp.n_points):
                scalar = predict_run(
                    app, data, gp.config_at(i), engine=engine
                ).sim_time
                assert float(gp.sim_time[i]) == scalar, (app.name, gp.params_at(i))

    def test_enumeration_matches_sweep_order(self, workload):
        import itertools

        app, data = workload
        gp = predict_grid(app, data, self.GRID)
        keys = sorted(self.GRID)
        combos = list(itertools.product(*(self.GRID[k] for k in keys)))
        assert gp.n_points == len(combos)
        for i, values in enumerate(combos):
            assert gp.params_at(i) == dict(zip(keys, values))

    def test_ranking_tie_break_prefers_small_footprint(self, workload):
        app, data = workload
        # single knob with a forced plateau: every depth beyond the chunk
        # count prices identically, so ranking must fall back to grid order
        gp = predict_grid(app, data, {"ring_depth": [5, 4, 3, 6]})
        if len(set(gp.sim_time.tolist())) == 1:
            assert gp.argbest() == 0  # grid order, not value order
        top = gp.top(1, expand_ties=True)
        assert all(
            gp.sim_time[i] == gp.sim_time[top[0]] for i in top
        )

    def test_unsupported_grid_key_rejected(self, workload):
        app, data = workload
        with pytest.raises(ReproError):
            predict_grid(app, data, {"pattern_recognition": [True, False]})

    def test_invalid_grid_value_rejected(self, workload):
        app, data = workload
        with pytest.raises(Exception):
            predict_grid(app, data, {"compute_threads": [33]})


class TestSuggestGrid:
    def test_reaches_requested_point_count(self):
        grid = suggest_grid(1_000_000)
        n = 1
        for values in grid.values():
            n *= len(values)
        assert n >= 1_000_000
        assert set(grid) <= set(GRID_FIELDS)

    def test_small_request_small_grid(self):
        grid = suggest_grid(1000)
        n = 1
        for values in grid.values():
            n *= len(values)
        assert 1000 <= n < 50_000


class TestKernelIntensity:
    def test_kernel_intensity_census(self):
        k = kernel_intensity(get_app("dna").kernel())
        assert k.arithmetic_ops > 0
        assert k.mapped_accesses > 0


class TestReport:
    def test_report_renders_all_sections(self):
        text = run_report("wordcount", data_bytes=2 * MiB)
        assert "analytic report: wordcount" in text
        for engine in PREDICTABLE_ENGINES:
            assert engine in text
        assert "predicted speedups" in text
        assert "stage occupancy" in text
        assert "chunk-size sensitivity" in text
        assert "<- best" in text

    def test_report_hw_preset(self):
        paper = run_report("netflix", data_bytes=2 * MiB)
        gen2 = run_report("netflix", data_bytes=2 * MiB, hw_preset="pcie-gen2")
        assert "hw=pcie-gen2" in gen2
        assert paper != gen2


class TestHwPresets:
    def test_paper_preset_is_default_hardware(self):
        assert get_hardware("paper") == DEFAULT_HARDWARE

    def test_unknown_preset_raises_with_choices(self):
        with pytest.raises(KeyError, match="paper"):
            get_hardware("quantum")

    def test_presets_change_predictions(self, workload):
        app, data = workload
        base = predict_run(app, data, engine="bigkernel").sim_time
        for name in ("pcie-gen2", "pcie-gen4", "big-gpu", "slow-cpu"):
            cfg = EngineConfig(hardware=HW_PRESETS[name])
            other = predict_run(app, data, cfg, engine="bigkernel").sim_time
            assert other != base, name
