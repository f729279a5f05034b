"""Tests for the multi-GPU extension."""

import pytest

from repro.apps import get_app
from repro.engines import BigKernelEngine, EngineConfig, MultiGpuBigKernelEngine
from repro.errors import RuntimeConfigError
from repro.units import MiB

CFG = EngineConfig(chunk_bytes=512 * 1024)


@pytest.fixture(scope="module")
def workload():
    app = get_app("netflix")
    return app, app.generate(n_bytes=8 * MiB, seed=3)


class TestMultiGpu:
    def test_output_identical_to_single_gpu(self, workload):
        app, data = workload
        one = BigKernelEngine().run(app, data, CFG)
        two = MultiGpuBigKernelEngine(2).run(app, data, CFG)
        assert app.outputs_equal(one.output, two.output)

    def test_two_gpus_faster_than_one(self, workload):
        app, data = workload
        one = BigKernelEngine().run(app, data, CFG)
        two = MultiGpuBigKernelEngine(2).run(app, data, CFG)
        assert two.sim_time < one.sim_time
        # no superlinear magic
        assert two.sim_time > one.sim_time / 2.2

    def test_scaling_diminishes_with_cpu_contention(self, workload):
        """The host's assembly threads are divided among the shards, so
        scaling flattens — the paper's 'BigKernel uses more CPU-side
        resources' caveat carried to multiple devices."""
        app, data = workload
        times = {
            n: MultiGpuBigKernelEngine(n).run(app, data, CFG).sim_time
            for n in (1, 2, 4)
        }
        assert times[2] <= times[1]
        assert times[4] <= times[2] * 1.01
        gain_12 = times[1] / times[2]
        gain_24 = times[2] / times[4]
        assert gain_24 < gain_12  # diminishing returns

    def test_shared_link_slower_than_dual_link(self, workload):
        app, data = workload
        dual = MultiGpuBigKernelEngine(2, shared_link=False).run(app, data, CFG)
        shared = MultiGpuBigKernelEngine(2, shared_link=True).run(app, data, CFG)
        assert shared.sim_time >= dual.sim_time

    def test_one_gpu_matches_base_engine(self, workload):
        """n_gpus=1 degenerates to (almost exactly) the base engine."""
        app, data = workload
        one = MultiGpuBigKernelEngine(1).run(app, data, CFG)
        base = BigKernelEngine().run(app, data, CFG)
        # workers_override differs (threads//1 == 8 == min(blocks, threads))
        assert one.sim_time == pytest.approx(base.sim_time, rel=0.05)

    def test_launches_one_kernel_per_device(self, workload):
        app, data = workload
        res = MultiGpuBigKernelEngine(3).run(app, data, CFG)
        assert res.metrics.kernel_launches == 3
        assert res.metrics.notes["n_gpus"] == 3

    def test_bytes_conserved_across_shards(self, workload):
        app, data = workload
        one = BigKernelEngine().run(app, data, CFG)
        two = MultiGpuBigKernelEngine(2).run(app, data, CFG)
        assert two.metrics.bytes_h2d == pytest.approx(one.metrics.bytes_h2d, rel=0.02)

    def test_invalid_gpu_count(self):
        with pytest.raises(RuntimeConfigError):
            MultiGpuBigKernelEngine(0)

    def test_analytic_predictor_prices_multigpu(self, workload):
        """The closed-form predictor knows the shard model: dedicated-link
        configurations price exactly (same per-shard bound family as the
        DES fastpath), shared-link ones within the 5% analytic tolerance."""
        from repro.analytic import predict_run, resolve_engine

        app, data = workload
        for n, shared, tol in [(2, False, 1e-9), (4, False, 1e-9), (2, True, 0.05)]:
            eng = MultiGpuBigKernelEngine(n, shared_link=shared)
            assert resolve_engine(eng) is eng
            res = eng.run(app, data, CFG)
            pred = predict_run(app, data, CFG, eng)
            assert pred.engine == eng.name
            assert pred.sim_time == pytest.approx(res.sim_time, rel=tol)

    def test_analytic_resolves_multigpu_names(self):
        """Instance names round-trip through the string resolver."""
        from repro.analytic import resolve_engine

        eng = resolve_engine("bigkernel_multigpu4_shared_numablind")
        assert isinstance(eng, MultiGpuBigKernelEngine)
        assert eng.n_gpus == 4 and eng.shared_link and not eng.numa_aware
        assert eng.name == "bigkernel_multigpu4_shared_numablind"
        assert resolve_engine("bigkernel_multigpu").n_gpus == 2

    def test_writer_app_works(self):
        app = get_app("kmeans")
        data = app.generate(n_bytes=4 * MiB, seed=5)
        one = BigKernelEngine().run(app, data, CFG)
        two = MultiGpuBigKernelEngine(2).run(app, data, CFG)
        assert app.outputs_equal(one.output, two.output)
        assert two.metrics.bytes_d2h > 0  # write-back sharded too
