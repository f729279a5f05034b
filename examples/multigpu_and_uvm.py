#!/usr/bin/env python3
"""Extensions showcase: multi-GPU sharding and the unified-memory epilogue.

Part 1 shards the Netflix stream across 1/2/4 simulated GPUs (dedicated
links vs one shared link) — the paper's per-block pipeline design extends
to multiple devices with no new machinery.

Part 2 adds the historical epilogue: a fault-driven unified-memory
executor gets BigKernel's programming model from the driver and roughly
double-buffering performance with zero buffer code — which is why this
line of work was eventually absorbed by UVM — while BigKernel's explicit
prefetch pipeline still wins the streaming workloads it was built for.
"""

from repro.apps import KMeansApp, NetflixApp
from repro.bench.report import render_table
from repro.engines import (
    BigKernelEngine,
    EngineConfig,
    GpuDoubleBufferEngine,
    GpuSingleBufferEngine,
    GpuUvmEngine,
    MultiGpuBigKernelEngine,
)
from repro.units import MiB, fmt_time


def part1_multigpu() -> None:
    app = NetflixApp()
    data = app.generate(n_bytes=32 * MiB, seed=9)
    cfg = EngineConfig(chunk_bytes=2 * MiB)
    base = BigKernelEngine().run(app, data, cfg)
    rows = [["1", fmt_time(base.sim_time), "1.00x", "-"]]
    for n in (2, 4):
        dedicated = MultiGpuBigKernelEngine(n).run(app, data, cfg)
        shared = MultiGpuBigKernelEngine(n, shared_link=True).run(app, data, cfg)
        assert app.outputs_equal(base.output, dedicated.output)
        rows.append(
            [
                str(n),
                fmt_time(dedicated.sim_time),
                f"{base.sim_time / dedicated.sim_time:.2f}x",
                f"{base.sim_time / shared.sim_time:.2f}x",
            ]
        )
    print(render_table(
        ["GPUs", "time", "scaling (dedicated links)", "scaling (shared link)"],
        rows,
        title="Part 1 — multi-GPU BigKernel on Netflix (32 MiB)",
    ))
    print("Scaling flattens as the host's 8 assembly threads are divided\n"
          "among devices — BigKernel's CPU-resource appetite, multiplied.\n")


def part2_uvm() -> None:
    app = KMeansApp()
    data = app.generate(n_bytes=32 * MiB, seed=9)
    cfg = EngineConfig(chunk_bytes=2 * MiB)
    engines = [
        GpuSingleBufferEngine(),
        GpuDoubleBufferEngine(),
        GpuUvmEngine(),
        BigKernelEngine(),
    ]
    rows = []
    results = [e.run(app, data, cfg) for e in engines]
    for r in results:
        code = {
            "gpu_single": "chunk loop + buffers",
            "gpu_double": "chunk loop + 2x buffers + events",
            "gpu_uvm": "none (driver-managed)",
            "bigkernel": "none (compiler-managed)",
        }[r.engine]
        rows.append([r.engine, fmt_time(r.sim_time), code])
    print(render_table(
        ["scheme", "time", "buffer code the programmer writes"],
        rows,
        title="Part 2 — the programmability/performance frontier (K-means)",
    ))
    print("\nUVM delivers BigKernel's zero-buffer programming model at\n"
          "~double-buffering speed — the reason fault-driven migration\n"
          "eventually absorbed this problem — while BigKernel's explicit\n"
          "pipeline remains ahead on streaming workloads.")


if __name__ == "__main__":
    part1_multigpu()
    part2_uvm()
