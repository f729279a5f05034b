"""CPU-based serial implementation — the Fig. 4(a) speedup denominator."""

from __future__ import annotations

from typing import Optional

from repro.apps.base import AppData, Application
from repro.engines.base import Engine, EngineConfig, RunMetrics, RunResult
from repro.hw.cpu import CpuDevice


class CpuSerialEngine(Engine):
    """One host thread streaming over the data."""

    name = "cpu_serial"
    display_name = "CPU Serial"

    def _legs(
        self, app: Application, data: AppData, config: EngineConfig
    ) -> tuple[float, float]:
        """``(compute, memory)`` roofline legs; ``sim_time`` is their max."""
        profile = app.access_profile(data)
        totals = self.totals(app, data, profile)
        # The serial implementation touches all record bytes every pass and
        # performs the scalar arithmetic of the kernel.
        return CpuDevice(config.hardware.cpu).serial_legs(
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
        sim_time = max(self._legs(app, data, config))
        output = app.reference(data) if config.functional else None
        metrics = RunMetrics(
            n_chunks=1,
            comp_time=sim_time,
            comm_time=0.0,
            notes={"threads": 1},
        )
        return RunResult(self.name, app.name, output, sim_time, metrics)
