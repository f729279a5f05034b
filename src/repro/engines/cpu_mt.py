"""CPU-based multithreaded implementation (all cores + hyperthreads)."""

from __future__ import annotations

from typing import Optional

from repro.apps.base import AppData, Application
from repro.engines.base import Engine, EngineConfig, RunMetrics, RunResult
from repro.hw.cpu import CpuDevice


class CpuMtEngine(Engine):
    """The paper's multi-threaded CPU baseline.

    Work is record-partitioned across hardware threads; arithmetic scales
    with physical cores (at an efficiency factor), memory throughput is
    capped by the socket. Functionally identical to the serial run — the
    apps' kernels are record-independent, so partitioning commutes.
    """

    name = "cpu_mt"
    display_name = "CPU Multi-threaded"

    def _legs(
        self, app: Application, data: AppData, config: EngineConfig
    ) -> tuple[float, float]:
        """``(compute, memory)`` roofline legs; ``sim_time`` is their max."""
        profile = app.access_profile(data)
        totals = self.totals(app, data, profile)
        return CpuDevice(config.hardware.cpu).mt_legs(
            n_ops=totals["cpu_ops"] * profile.passes,
            bytes_streamed=totals["data_bytes"] * profile.passes,
        )

    def run(
        self,
        app: Application,
        data: AppData,
        config: Optional[EngineConfig] = None,
    ) -> RunResult:
        config = config or EngineConfig()
        spec = config.hardware.cpu
        sim_time = max(self._legs(app, data, config))
        # Functional path: partition into per-thread chunks to demonstrate
        # record independence (results must equal the serial run).
        n = app.n_units(data)
        per = max(1, -(-n // spec.threads))
        bounds = app.chunk_bounds(data, per)
        output = (
            self._functional_output(app, data, bounds) if config.functional else None
        )
        metrics = RunMetrics(
            n_chunks=len(bounds),
            comp_time=sim_time,
            comm_time=0.0,
            notes={"threads": spec.threads},
        )
        return RunResult(self.name, app.name, output, sim_time, metrics)
