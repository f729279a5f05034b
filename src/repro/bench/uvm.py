"""BigKernel vs unified-memory demand paging: the competitor comparison.

The paper argues (Section II) that CUDA-style unified/managed memory is
the *convenience* alternative to BigKernel's explicit 4-stage pipeline:
the driver migrates pages on fault instead of the runtime streaming
chunks ahead of the kernel. This harness quantifies that argument on the
paper's six applications by running four schemes per app:

* ``bigkernel`` — the paper's pipelined engine (the contribution);
* ``gpu_uvm`` — pure fault-driven paging, no prefetch;
* ``uvm_readahead`` — paging plus the adaptive-window sequential
  readahead a production driver ships;
* ``uvm_learned`` — paging plus a pattern prefetcher fed by the same
  address-stream analysis BigKernel's own prefetch threads use.

Expected shape of the result (asserted by ``benchmarks/test_perf_smoke``
and pinned at reference scale by ``tests/test_calibration_lock``): both
prefetched variants beat plain UVM on every app, and BigKernel beats the
best UVM variant on most apps — prefetching narrows the gap but cannot
buy the pipeline's pinned-buffer bandwidth or its transfer-volume
reduction.

Exposed as ``python -m repro bench [--jobs N]``. The comparison is one
call to :func:`repro.bench.harness.run_matrix`, which runs and
cross-checks the (app, engine) cells; this module adds the table and the
figure entry.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.apps import get_app
from repro.bench.harness import BenchSettings, Matrix, run_matrix
from repro.engines import (
    UVM_ENGINES,
    BigKernelEngine,
    EngineConfig,
)
from repro.units import MiB, fmt_time

#: the six applications of the paper's evaluation (the indexed MasterCard
#: variant is a Table II ablation, not part of the Fig. 4 matrix)
PAPER_APP_NAMES = (
    "kmeans",
    "wordcount",
    "netflix",
    "opinion",
    "dna",
    "mastercard",
)


def comparison_engines() -> tuple:
    """The four schemes of the comparison, in report column order."""
    return (BigKernelEngine(),) + tuple(cls() for cls in UVM_ENGINES)


class UvmComparison(Matrix):
    """Results of one BigKernel-vs-UVM comparison sweep."""

    def summary(self) -> str:
        from repro.bench.report import render_table

        rows = []
        for app in self.apps:
            row = [app]
            for engine in self.engines:
                row.append(fmt_time(self.sim_time(app, engine)))
            row.append(f"{self.speedup(app, 'bigkernel', self.best_uvm(app)):.2f}x")
            rows.append(row)
        return render_table(
            ["app", *self.engines, "bigkernel vs best uvm"],
            rows,
            title=(
                f"BigKernel vs unified memory: "
                f"{self.data_bytes // MiB} MiB datasets, seed {self.seed}"
            ),
        )

    def best_uvm(self, app: str) -> str:
        """The fastest unified-memory variant on ``app``."""
        uvm = [e for e in self.engines if e != "bigkernel"]
        return min(uvm, key=lambda e: self.sim_time(app, e))

    def figure_entry(self) -> dict:
        """The ``BENCH_pipeline.json`` record of this comparison."""
        cells = {}
        for app in self.apps:
            per_app = {}
            for engine in self.engines:
                res = self.get(app, engine)
                cell = {"sim_time": res.sim_time}
                faults = res.metrics.notes.get("faults")
                if faults is not None:
                    cell["faults"] = faults
                per_app[engine] = cell
            per_app["bigkernel_vs_best_uvm"] = self.speedup(
                app, "bigkernel", self.best_uvm(app)
            )
            cells[app] = per_app
        return {
            "name": "uvm_comparison",
            "seed": self.seed,
            "data_bytes": self.data_bytes,
            "engines": list(self.engines),
            "apps": cells,
        }


def run_uvm_comparison(
    data_bytes: int = 4 * MiB,
    seed: int = 4,
    config: Optional[EngineConfig] = None,
    apps: Optional[Iterable[str]] = None,
    jobs: int = 1,
) -> UvmComparison:
    """Run the four-scheme comparison over the paper's six applications.

    :func:`~repro.bench.harness.run_matrix` cross-checks every engine's
    functional output against the first (BigKernel, itself differentially
    verified against the serial oracle by ``repro verify``), each cell on
    its own freshly generated dataset of the recipe — a paging bug can
    slow the timeline, but it must never corrupt data. ``jobs`` fans the
    cells out; cell order (and therefore the figure entry) is the same
    whatever ran them.
    """
    config = config or EngineConfig(chunk_bytes=max(256 * 1024, data_bytes // 4))
    app_names = apps if apps is not None else PAPER_APP_NAMES
    matrix = run_matrix(
        BenchSettings(data_bytes=data_bytes, seed=seed, config=config),
        apps=[get_app(name) for name in app_names],
        engines=comparison_engines(),
        jobs=jobs,
    )
    return UvmComparison(**vars(matrix))
