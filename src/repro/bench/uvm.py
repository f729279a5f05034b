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

Exposed as ``python -m repro bench [--jobs N] [--backend B]``. The
(app, engine) cells run through :func:`repro.bench.jobs.run_cells`, the
cell runner the multi-GPU ladder also uses, and come back in the serial
nesting order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.apps import get_app
from repro.bench.jobs import run_cells
from repro.engines import (
    UVM_ENGINES,
    BigKernelEngine,
    EngineConfig,
)
from repro.errors import ValidationFailure
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


@dataclass
class UvmComparison:
    """Results of one BigKernel-vs-UVM comparison sweep."""

    seed: int
    data_bytes: int
    apps: tuple = ()
    engines: tuple = ()
    results: dict = field(default_factory=dict)  # (app, engine) -> RunResult

    def get(self, app: str, engine: str):
        return self.results[(app, engine)]

    def sim_time(self, app: str, engine: str) -> float:
        return self.get(app, engine).sim_time

    def speedup(self, app: str, engine: str, baseline: str = "gpu_uvm") -> float:
        """How much faster ``engine`` is than ``baseline`` on ``app``."""
        return self.sim_time(app, baseline) / self.sim_time(app, engine)

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
    backend: str = "auto",
) -> UvmComparison:
    """Run the four-scheme comparison over the paper's six applications.

    Every engine's functional output is cross-checked against the first
    (BigKernel, itself differentially verified against the serial oracle
    by ``repro verify``) — a paging bug can slow the timeline, but it must
    never corrupt data. ``jobs``/``backend`` fan the cells out through
    :func:`repro.bench.jobs.run_cells`; cell order (and therefore the
    figure entry) is backend-invariant.
    """
    config = config or EngineConfig(chunk_bytes=max(256 * 1024, data_bytes // 4))
    app_names = tuple(apps) if apps is not None else PAPER_APP_NAMES
    app_objs = [get_app(name) for name in app_names]
    engines = comparison_engines()
    datasets = {
        app.name: app.generate(n_bytes=data_bytes, seed=seed)
        for app in app_objs
    }

    comparison = UvmComparison(
        seed=seed,
        data_bytes=data_bytes,
        apps=tuple(app_names),
        engines=tuple(e.name for e in engines),
    )

    cells = [(app, engine) for app in app_objs for engine in engines]
    results = run_cells(cells, datasets, config, jobs, backend)
    for (app, engine), res in zip(cells, results):
        comparison.results[(app.name, engine.name)] = res

    if config.functional:
        for app in app_objs:
            ref = comparison.get(app.name, engines[0].name)
            for engine in engines[1:]:
                res = comparison.get(app.name, engine.name)
                if not app.outputs_equal(ref.output, res.output):
                    raise ValidationFailure(
                        f"{engine.name} output differs from {ref.engine} "
                        f"on {app.name}"
                    )
    return comparison
