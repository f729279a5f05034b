"""Multi-GPU scale-out: the 1→K sharded-pipeline scaling sweep.

The scale-out engine (:mod:`repro.engines.multigpu`) partitions each
application across K modeled GPUs whose pipelines contend on the host
fabric — shared PCIe root complex, NUMA-split memory bandwidth, a fixed
CPU-thread budget — and pays a cross-GPU merge at every pass boundary.
This harness measures that model end to end: every paper application at
every GPU count, dedicated or shared links, with three cross-checks
folded into the sweep itself:

* **merged-output equality** — every K-GPU cell's functional output must
  equal the single-GPU run's under the app's ``outputs_equal``: bit for
  bit on every app but Netflix, whose fp64 moment table is merged in
  shard order and matches within its 1e-9 tolerance;
* **per-shard invariants** (``verify_shards=True``) — each cell runs as
  a true DES and every shard's trace is audited by the standard pipeline
  checkers (capacity, ordering, backpressure, byte conservation);
* **analytic agreement** — the closed-form shard predictor prices every
  cell; dedicated-link cells must match the DES exactly, shared-link
  cells within the 5% analytic tolerance.

Expected shape (asserted by ``benchmarks/test_perf_smoke`` and pinned at
reference scale by ``tests/test_calibration_lock``): compute-bound apps
(wordcount, opinion, mastercard) scale to 8 GPUs with diminishing
returns; transfer-bound apps (netflix, dna) plateau — and can *regress*
at high K where the merge cost and the NUMA-split assembly floor eat the
shrinking per-shard win; a shared root complex is never faster than
dedicated links.

Exposed as ``python -m repro bench --gpus 1,2,4,8 [--shared-link]``.
The ladder is one call to :func:`repro.bench.harness.run_matrix`, which
runs the cells and makes the first two checks; this module adds the
analytic prices, the table and the figure entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.apps import get_app
from repro.bench.harness import BenchSettings, Matrix, run_matrix
from repro.engines import EngineConfig
from repro.engines.multigpu import MultiGpuBigKernelEngine
from repro.errors import ReproError
from repro.units import MiB, fmt_time

from repro.bench.uvm import PAPER_APP_NAMES

#: the scaling ladder of the paper-style evaluation
DEFAULT_GPU_COUNTS = (1, 2, 4, 8)


def scaling_engines(
    gpu_counts: Iterable[int] = DEFAULT_GPU_COUNTS,
    shared_link: bool = False,
) -> tuple:
    """One NUMA-aware sharded engine per GPU count, in ladder order."""
    counts = tuple(gpu_counts)
    if not counts or any(n < 1 for n in counts):
        raise ReproError(f"gpu counts must be positive: {counts!r}")
    return tuple(
        MultiGpuBigKernelEngine(n_gpus=n, shared_link=shared_link)
        for n in counts
    )


@dataclass
class MultiGpuScaling(Matrix):
    """Results of one 1→K GPU scaling sweep: one engine column per GPU
    count, in ladder order, so :meth:`speedup` is over the single-GPU
    column of the same fabric."""

    gpu_counts: tuple = DEFAULT_GPU_COUNTS
    shared_link: bool = False
    #: (app, engine) -> closed-form predicted sim_time
    predictions: dict = field(default_factory=dict)

    def prediction_rel_err(self, app: str, engine: str) -> float:
        """Relative error of the analytic price against the DES."""
        predicted = self.predictions[(app, engine)]
        simulated = self.sim_time(app, engine)
        return abs(predicted - simulated) / max(abs(simulated), 1e-300)

    def summary(self) -> str:
        from repro.bench.report import render_table

        rows = []
        for app in self.apps:
            row = [app]
            for engine in self.engines:
                row.append(
                    f"{fmt_time(self.sim_time(app, engine))} "
                    f"({self.speedup(app, engine):.2f}x)"
                )
            rows.append(row)
        link = "shared root complex" if self.shared_link else "dedicated links"
        return render_table(
            ["app", *[f"{n} GPU{'s' if n > 1 else ''}" for n in self.gpu_counts]],
            rows,
            title=(
                f"Multi-GPU scaling ({link}): "
                f"{self.data_bytes // MiB} MiB datasets, seed {self.seed}"
            ),
        )

    def figure_entry(self) -> dict:
        """The ``BENCH_pipeline.json`` record of this sweep."""
        cells = {}
        for app in self.apps:
            per_app = {}
            for n, engine in zip(self.gpu_counts, self.engines):
                res = self.get(app, engine)
                per_app[f"g{n}"] = {
                    "sim_time": res.sim_time,
                    "speedup": self.speedup(app, engine),
                    "merge_time": res.metrics.notes.get("merge_time", 0.0),
                    "predicted": self.predictions[(app, engine)],
                    "prediction_rel_err": self.prediction_rel_err(app, engine),
                }
            cells[app] = per_app
        return {
            "name": "multigpu_scaling",
            "seed": self.seed,
            "data_bytes": self.data_bytes,
            "gpu_counts": list(self.gpu_counts),
            "shared_link": self.shared_link,
            "apps": cells,
        }


def run_multigpu_scaling(
    data_bytes: int = 4 * MiB,
    seed: int = 4,
    config: Optional[EngineConfig] = None,
    apps: Optional[Iterable[str]] = None,
    gpu_counts: Iterable[int] = DEFAULT_GPU_COUNTS,
    shared_link: bool = False,
    jobs: int = 1,
    verify_shards: bool = False,
) -> MultiGpuScaling:
    """Run the scaling ladder over the paper's six applications.

    :func:`~repro.bench.harness.run_matrix` cross-checks every K-GPU
    cell's functional output against the single-GPU cell of the same
    ladder under the app's ``outputs_equal`` — sharding plus the merge
    stage must be invisible to the result (bit for bit but for Netflix's
    shard-order fp64 sums). ``verify_shards=True`` is its
    ``check_invariants``: every cell runs through the true DES (the
    closed-form fastpath is proven time-identical) and each shard's trace
    is audited. The analytic shard model prices every cell. ``jobs`` fans
    the cells out; cell order (and the figure entry) is the same whatever
    ran the cells.
    """
    config = config or EngineConfig(chunk_bytes=max(256 * 1024, data_bytes // 4))
    app_objs = [
        get_app(name) for name in (apps if apps is not None else PAPER_APP_NAMES)
    ]
    engines = scaling_engines(gpu_counts, shared_link)
    matrix = run_matrix(
        BenchSettings(
            data_bytes=data_bytes,
            seed=seed,
            config=config,
            check_invariants=verify_shards,
        ),
        apps=app_objs,
        engines=engines,
        jobs=jobs,
    )

    from repro.analytic import predict_run

    predictions = {}
    for app in app_objs:
        data = app.generate(n_bytes=data_bytes, seed=seed)
        for engine in engines:
            predictions[(app.name, engine.name)] = predict_run(
                app, data, config, engine
            ).sim_time
    return MultiGpuScaling(
        **vars(matrix),
        gpu_counts=tuple(e.n_gpus for e in engines),
        shared_link=shared_link,
        predictions=predictions,
    )
