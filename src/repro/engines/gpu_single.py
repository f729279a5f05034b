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
from repro.hw.elementwise import trunc, where
from repro.hw.gpu import GpuDevice
from repro.runtime.fastpath import split_units


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
        profile = app.access_profile(data)
        units = app.n_units(data)
        upc, _ = chunk_plan(units, config.chunk_bytes, profile.record_bytes)
        comm, comp, h2d, d2h, launches = self.serial_chain(
            config.hardware, profile, units, upc, config.total_compute_threads
        )
        return RunMetrics(
            n_chunks=launches,
            bytes_h2d=h2d,
            bytes_d2h=d2h,
            comp_time=comp,
            comm_time=comm,
            kernel_launches=launches,
            notes={"units_per_chunk": upc},
        )

    def serial_chain(self, hw, profile, units, upc, threads):
        """``(comm, comp, bytes_h2d, bytes_d2h, kernel_launches)`` of a run
        over ``units`` units in ``upc``-unit chunks.

        Serialized execution has no cross-chunk coupling, so per-pass cost
        is (full chunks) x (template cost) + (tail cost): the two chunk
        kinds are priced once instead of looping over every chunk. ``upc``
        and ``threads`` may be per-point arrays (``repro.analytic`` prices
        a sweep grid this way).
        """
        tpl_u, n_tpl, tail_u, has_tail = split_units(units, upc)
        comm_f, comp_f, h2d_f, d2h_f = self.chunk_costs(hw, profile, tpl_u, threads)
        comm_t, comp_t, h2d_t, d2h_t = self.chunk_costs(hw, profile, tail_u, threads)
        passes = profile.passes
        return (
            passes * (n_tpl * comm_f + where(has_tail, comm_t, 0.0)),
            passes * (n_tpl * comp_f + where(has_tail, comp_t, 0.0)),
            passes * (n_tpl * h2d_f + where(has_tail, h2d_t, 0)),
            passes * (n_tpl * d2h_f + where(has_tail, d2h_t, 0)),
            passes * (n_tpl + has_tail),
        )

    @staticmethod
    def chunk_costs(hw, profile, u, threads):
        """``(comm, comp, bytes_h2d, bytes_d2h)`` of one ``u``-unit chunk."""
        gpu = GpuDevice(hw.gpu)
        cpu = CpuDevice(hw.cpu)
        raw = u * profile.record_bytes
        comm = cpu.staging_copy_time(raw)
        comm += hw.pcie.pinned_transfer_time(raw)
        cost = kernel_chunk_cost(profile, u, coalesced=False)
        comp = gpu.stage_time(cost, threads) + gpu.spec.kernel_launch_overhead
        d2h = 0
        if profile.write_bytes_per_record > 0:
            wb = u * profile.write_bytes_per_record
            comm += hw.pcie.pinned_transfer_time(wb)
            comm += cpu.staging_copy_time(wb)  # apply into the source
            d2h = trunc(wb)
        return comm, comp, trunc(raw), d2h

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
