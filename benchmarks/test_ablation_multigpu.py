"""Ablation (extension): multi-GPU scaling of the BigKernel pipeline.

Shards the stream across simulated devices and reports the scaling curve
for a transfer-bound app (Netflix) and a compute-bound one (Word Count),
with dedicated vs shared PCIe links.
"""

from repro.apps import get_app
from repro.bench.report import render_table
from repro.engines import BigKernelEngine, EngineConfig, MultiGpuBigKernelEngine
from repro.units import MiB


def test_multigpu_scaling(benchmark):
    cfg = EngineConfig(chunk_bytes=1 * MiB)

    def run():
        out = {}
        for app_name in ("netflix", "wordcount"):
            app = get_app(app_name)
            data = app.generate(n_bytes=16 * MiB, seed=7)
            base = BigKernelEngine().run(app, data, cfg).sim_time
            rows = {1: base}
            shared = {}
            for n in (2, 4):
                rows[n] = MultiGpuBigKernelEngine(n).run(app, data, cfg).sim_time
                shared[n] = MultiGpuBigKernelEngine(n, shared_link=True).run(
                    app, data, cfg
                ).sim_time
            out[app_name] = (rows, shared)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    printable = []
    for app_name, (rows, shared) in results.items():
        base = rows[1]
        for n in (1, 2, 4):
            printable.append(
                [
                    app_name,
                    n,
                    f"{rows[n] * 1e3:.2f} ms",
                    f"{base / rows[n]:.2f}x",
                    "-" if n == 1 else f"{base / shared[n]:.2f}x",
                ]
            )
    print("\n" + render_table(
        ["app", "GPUs", "time (dedicated links)", "scaling", "scaling (shared link)"],
        printable,
        title="Extension: multi-GPU BigKernel scaling",
    ))

    for app_name, (rows, shared) in results.items():
        assert rows[2] < rows[1]
        assert rows[4] <= rows[2] * 1.01
        # shared link scales no better than dedicated links
        for n in (2, 4):
            assert shared[n] >= rows[n] * 0.999
