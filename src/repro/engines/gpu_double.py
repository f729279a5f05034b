"""GPU double-buffering implementation — the prior state of the art.

Two staging/device buffer pairs: while the kernel consumes buffer A, the
host stages and DMAs chunk *n+1* into buffer B. Scheduling runs on the
same simulated pipeline machinery as BigKernel, with the address-generation
stage empty and the "assembly" stage being the plain staging memcpy —
which is exactly what double-buffering is: BigKernel minus prefetching,
minus volume reduction, minus re-layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.base import AppData, Application, data_fingerprint
from repro.engines.base import Engine, EngineConfig, RunMetrics, RunResult, Timeline
from repro.engines.gpu_common import chunk_plan, kernel_chunk_cost
from repro.faults.inject import FaultInjector
from repro.hw.cpu import CpuDevice
from repro.hw.elementwise import trunc
from repro.hw.gpu import GpuDevice
from repro.memo import Memo
from repro.runtime.fastpath import TemplatedChunks
from repro.runtime.pipeline import (
    STAGE_ASSEMBLY,
    STAGE_COMPUTE,
    STAGE_TRANSFER,
    STAGE_WRITEBACK_SCATTER,
    STAGE_WRITEBACK_XFER,
    ChunkWork,
    PipelineConfig,
    run_pipeline,
)


@dataclass
class DoubleBufferPlan:
    """Resolved plan of one double-buffered run: its chunk schedule, its
    units per chunk and, once simulated, its fault-free timeline."""

    chunks: TemplatedChunks
    upc: int
    #: the fault-free run, once simulated (see :meth:`Engine._timed`)
    timeline: Optional[Timeline] = None


class GpuDoubleBufferEngine(Engine):
    """Chunked execution with transfer/compute overlap (2 buffers)."""

    name = "gpu_double"
    display_name = "GPU Double Buffer"
    #: two buffer pairs, staged by one host thread
    pipe_cfg = PipelineConfig(ring_depth=2, cpu_workers=1)

    def __init__(self):
        self._schedule_cache = Memo("gpu_double.schedule", 128)

    def _schedule(
        self, app: Application, data: AppData, config: EngineConfig
    ) -> DoubleBufferPlan:
        """The run's plan: its chunk schedule and its units per chunk.

        :meth:`run` simulates the schedule under :attr:`pipe_cfg`, and
        ``repro.analytic`` prices the same one in closed form. Plans are
        memoized per engine instance on exactly what they read, so a
        repeated fault-free run replays its plan's timeline. The key
        leaves out ``ring_depth``: the ring is fixed at two, so every
        ring depth of one chunk size shares one plan.
        """
        hw = config.hardware
        threads = config.total_compute_threads
        cache_key = (app, data_fingerprint(data), hw, config.chunk_bytes, threads)
        plan = self._schedule_cache.get(cache_key)
        if plan is not None:
            return plan
        profile = app.access_profile(data)
        units = app.n_units(data)
        upc, _ = chunk_plan(units, config.chunk_bytes, profile.record_bytes)
        chunks = TemplatedChunks.split(
            units,
            upc,
            lambda u: self.chunk_costs(hw, profile, u, threads),
            profile.passes,
        )
        plan = DoubleBufferPlan(chunks, upc)
        self._schedule_cache.put(cache_key, plan)
        return plan

    @staticmethod
    def chunk_costs(hw, profile, u, threads) -> ChunkWork:
        """Stage costs of one ``u``-unit chunk run by ``threads`` GPU
        threads. ``u`` and ``threads`` may be per-point arrays, and then so
        are the costs (``repro.analytic.predict_grid`` prices a sweep
        grid this way)."""
        gpu = GpuDevice(hw.gpu)
        cpu = CpuDevice(hw.cpu)
        raw = u * profile.record_bytes
        cost = kernel_chunk_cost(profile, u, coalesced=False)
        t_comp = gpu.stage_time(cost, threads) + gpu.spec.kernel_launch_overhead
        wb = u * profile.write_bytes_per_record
        return ChunkWork(
            index=0,
            t_addr_gen=0.0,
            addr_bytes_d2h=0,
            t_assembly=cpu.staging_copy_time(raw),
            xfer_bytes=trunc(raw),
            t_compute=t_comp,
            write_bytes=trunc(wb),
            t_scatter=(
                cpu.staging_copy_time(wb)
                if profile.write_bytes_per_record > 0
                else 0.0
            ),
        )

    def run(
        self,
        app: Application,
        data: AppData,
        config: Optional[EngineConfig] = None,
    ) -> RunResult:
        config = config or EngineConfig()
        plan = self._schedule(app, data, config)
        timeline = self._timed(plan, config, lambda: self._simulate(plan, config))
        output = None
        if config.functional:
            output = self._functional_output(app, data, plan.upc)
        return timeline.result(self.name, app.name, output)

    def _simulate(self, plan: DoubleBufferPlan, config: EngineConfig) -> Timeline:
        """One simulation of ``plan``: the closed form when the run
        qualifies, the DES otherwise."""
        injector = None
        if config.faults is not None and config.faults.active():
            injector = FaultInjector(config.faults)
        result = run_pipeline(
            config.hardware,
            plan.chunks,
            self.pipe_cfg,
            fastpath=config.fastpath,
            faults=injector,
        )
        comm = (
            result.stage_totals.get(STAGE_ASSEMBLY, 0.0)
            + result.stage_totals.get(STAGE_TRANSFER, 0.0)
            + result.stage_totals.get(STAGE_WRITEBACK_XFER, 0.0)
            + result.stage_totals.get(STAGE_WRITEBACK_SCATTER, 0.0)
        )
        metrics = RunMetrics(
            n_chunks=len(plan.chunks),
            bytes_h2d=result.bytes_h2d,
            bytes_d2h=result.bytes_d2h,
            comp_time=result.stage_totals.get(STAGE_COMPUTE, 0.0),
            comm_time=comm,
            stage_totals=result.stage_totals,
            kernel_launches=len(plan.chunks),
            notes={"units_per_chunk": plan.upc},
        )
        if injector is not None:
            metrics.notes["fault_stats"] = injector.stats()
        return Timeline(
            result.total_time,
            metrics,
            None if result.trace is None else tuple(result.trace),
        )
