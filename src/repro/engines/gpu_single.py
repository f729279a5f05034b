"""GPU single-buffer implementation: transfers and kernels serialized.

One staging buffer, one device buffer: for each chunk the host copies data
into the pinned staging buffer, the DMA moves it to the device, the kernel
runs, and (for writers) results come back — all strictly in sequence. This
is the scheme Fig. 4(b)'s computation/communication ratio is reported for.
"""

from __future__ import annotations

from typing import Optional

from repro.apps.base import AppData, Application
from repro.engines.base import Engine, EngineConfig, RunMetrics, RunResult
from repro.engines.gpu_common import chunk_plan, kernel_chunk_cost
from repro.hw.cpu import CpuDevice
from repro.hw.gpu import GpuDevice


class GpuSingleBufferEngine(Engine):
    """Serialized chunked execution (no overlap)."""

    name = "gpu_single"
    display_name = "GPU Single Buffer"

    def _closed_form(
        self, app: Application, data: AppData, config: EngineConfig
    ) -> RunMetrics:
        """The run's whole timing: nothing overlaps, so its ``sim_time`` is
        ``comm_time + comp_time``. :meth:`run` and ``repro.analytic`` both
        read it."""
        hw = config.hardware
        profile = app.access_profile(data)
        gpu = GpuDevice(hw.gpu)
        cpu = CpuDevice(hw.cpu)

        units = app.n_units(data)
        upc, n_chunks = chunk_plan(units, config.chunk_bytes, profile.record_bytes)
        threads = config.total_compute_threads

        def chunk_costs(u: int) -> tuple[float, float, int, int]:
            """(comm, comp, bytes_h2d, bytes_d2h) of one ``u``-unit chunk."""
            raw = u * profile.record_bytes
            comm = cpu.staging_copy_time(raw)
            comm += hw.pcie.transfer_time(raw, pinned=True)
            cost = kernel_chunk_cost(profile, u, coalesced=False)
            comp = gpu.stage_time(cost, threads) + gpu.spec.kernel_launch_overhead
            wb = u * profile.write_bytes_per_record
            d2h = 0
            if wb > 0:
                comm += hw.pcie.transfer_time(wb, pinned=True)
                comm += cpu.staging_copy_time(wb)  # apply into the source
                d2h = int(wb)
            return comm, comp, int(raw), d2h

        # Serialized execution has no cross-chunk coupling, so per-pass cost
        # is just (full chunks) x (template cost) + (tail cost): price the
        # two chunk kinds once instead of looping over every chunk.
        n_full, rem = divmod(units, upc)
        comm_f, comp_f, h2d_f, d2h_f = chunk_costs(upc) if n_full else (0, 0, 0, 0)
        comm_t, comp_t, h2d_t, d2h_t = chunk_costs(rem) if rem else (0.0, 0.0, 0, 0)
        passes = profile.passes
        return RunMetrics(
            n_chunks=n_chunks * passes,
            bytes_h2d=passes * (n_full * h2d_f + h2d_t),
            bytes_d2h=passes * (n_full * d2h_f + d2h_t),
            comp_time=passes * (n_full * comp_f + comp_t),
            comm_time=passes * (n_full * comm_f + comm_t),
            kernel_launches=passes * (n_full + (1 if rem else 0)),
            notes={"units_per_chunk": upc},
        )

    def run(
        self,
        app: Application,
        data: AppData,
        config: Optional[EngineConfig] = None,
    ) -> RunResult:
        config = config or EngineConfig()
        metrics = self._closed_form(app, data, config)
        output = None
        if config.functional:
            bounds = app.chunk_bounds(data, metrics.notes["units_per_chunk"])
            output = self._functional_output(app, data, bounds)
        sim_time = metrics.comm_time + metrics.comp_time
        return RunResult(self.name, app.name, output, sim_time, metrics)
