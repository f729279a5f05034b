"""Multi-GPU scale-out: the 1→K sharded-pipeline scaling sweep.

The scale-out engine (:mod:`repro.engines.multigpu`) partitions each
application across K modeled GPUs whose pipelines contend on the host
fabric — shared PCIe root complex, NUMA-split memory bandwidth, a fixed
CPU-thread budget — and pays a cross-GPU merge at every pass boundary.
This harness measures that model end to end: every paper application at
every GPU count, dedicated or shared links, with three cross-checks
folded into the sweep itself:

* **merged-output equality** — every K-GPU cell's functional output must
  be bit-equal (``outputs_equal``, rtol 0) to the single-GPU run;
* **per-shard invariants** (``verify_shards=True``) — each cell runs as
  a true DES and every shard's trace is audited by the standard pipeline
  checkers (capacity, ordering, backpressure, byte conservation);
* **analytic agreement** (``predict=True``) — the closed-form shard
  predictor prices every cell; dedicated-link cells must match the DES
  exactly, shared-link cells within the 5% analytic tolerance.

Expected shape (asserted by ``benchmarks/test_perf_smoke`` and pinned at
reference scale by ``tests/test_calibration_lock``): compute-bound apps
(wordcount, opinion, mastercard) scale to 8 GPUs with diminishing
returns; transfer-bound apps (netflix, dna) plateau — and can *regress*
at high K where the merge cost and the NUMA-split assembly floor eat the
shrinking per-shard win; a shared root complex is never faster than
dedicated links.

Exposed as ``python -m repro bench --gpus 1,2,4,8 [--shared-link]``.
Cells run through :func:`repro.bench.jobs.run_cells`, the cell runner
the UVM comparison also uses, and come back in serial nesting order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.apps import get_app
from repro.bench.jobs import run_cells
from repro.engines import EngineConfig
from repro.engines.multigpu import MultiGpuBigKernelEngine
from repro.errors import ReproError, ValidationFailure
from repro.units import MiB, fmt_time

from repro.bench.uvm import PAPER_APP_NAMES

#: the scaling ladder of the paper-style evaluation
DEFAULT_GPU_COUNTS = (1, 2, 4, 8)


def scaling_engines(
    gpu_counts: Iterable[int] = DEFAULT_GPU_COUNTS,
    shared_link: bool = False,
    numa_aware: bool = True,
) -> tuple:
    """One sharded engine per GPU count, in ladder order."""
    counts = tuple(gpu_counts)
    if not counts or any(n < 1 for n in counts):
        raise ReproError(f"gpu counts must be positive: {counts!r}")
    return tuple(
        MultiGpuBigKernelEngine(
            n_gpus=n, shared_link=shared_link, numa_aware=numa_aware
        )
        for n in counts
    )


@dataclass
class MultiGpuScaling:
    """Results of one 1→K GPU scaling sweep."""

    seed: int
    data_bytes: int
    gpu_counts: tuple = DEFAULT_GPU_COUNTS
    shared_link: bool = False
    numa_aware: bool = True
    apps: tuple = ()
    results: dict = field(default_factory=dict)  # (app, n_gpus) -> RunResult
    #: (app, n_gpus) -> closed-form predicted sim_time (when priced)
    predictions: dict = field(default_factory=dict)

    def get(self, app: str, n_gpus: int):
        return self.results[(app, n_gpus)]

    def sim_time(self, app: str, n_gpus: int) -> float:
        return self.get(app, n_gpus).sim_time

    def speedup(self, app: str, n_gpus: int) -> float:
        """Scaling over the single-GPU run of the same fabric."""
        return self.sim_time(app, self.gpu_counts[0]) / self.sim_time(app, n_gpus)

    def prediction_rel_err(self, app: str, n_gpus: int) -> float:
        """Relative error of the analytic price against the DES."""
        predicted = self.predictions[(app, n_gpus)]
        simulated = self.sim_time(app, n_gpus)
        return abs(predicted - simulated) / max(abs(simulated), 1e-300)

    def summary(self) -> str:
        from repro.bench.report import render_table

        rows = []
        for app in self.apps:
            row = [app]
            for n in self.gpu_counts:
                row.append(
                    f"{fmt_time(self.sim_time(app, n))} "
                    f"({self.speedup(app, n):.2f}x)"
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
            for n in self.gpu_counts:
                res = self.get(app, n)
                cell = {
                    "sim_time": res.sim_time,
                    "speedup": self.speedup(app, n),
                    "merge_time": res.metrics.notes.get("merge_time", 0.0),
                }
                if (app, n) in self.predictions:
                    cell["predicted"] = self.predictions[(app, n)]
                    cell["prediction_rel_err"] = self.prediction_rel_err(app, n)
                per_app[f"g{n}"] = cell
            cells[app] = per_app
        return {
            "name": "multigpu_scaling",
            "seed": self.seed,
            "data_bytes": self.data_bytes,
            "gpu_counts": list(self.gpu_counts),
            "shared_link": self.shared_link,
            "numa_aware": self.numa_aware,
            "apps": cells,
        }


def _verify_cell_shards(app, res) -> None:
    """Audit every shard's trace with the standard pipeline checkers."""
    from repro.verify.invariants import audit_sharded_run

    problems = audit_sharded_run(res)
    if problems:
        raise ValidationFailure(
            f"{res.engine} on {app.name}: " + "; ".join(problems)
        )


def run_multigpu_scaling(
    data_bytes: int = 4 * MiB,
    seed: int = 4,
    config: Optional[EngineConfig] = None,
    apps: Optional[Iterable[str]] = None,
    gpu_counts: Iterable[int] = DEFAULT_GPU_COUNTS,
    shared_link: bool = False,
    numa_aware: bool = True,
    jobs: int = 1,
    backend: str = "auto",
    predict: bool = True,
    verify_shards: bool = False,
) -> MultiGpuScaling:
    """Run the scaling ladder over the paper's six applications.

    Every K-GPU cell's functional output is cross-checked against the
    single-GPU cell of the same ladder — sharding plus the merge stage
    must be invisible to the result, bit for bit. ``verify_shards=True``
    forces every cell through the true DES (the closed-form fastpath is
    proven time-identical) and audits each shard's trace; ``predict``
    prices every cell with the analytic shard model. ``jobs``/``backend``
    fan the cells out through :func:`repro.bench.jobs.run_cells`; cell
    order (and the figure entry) is backend-invariant.
    """
    config = config or EngineConfig(chunk_bytes=max(256 * 1024, data_bytes // 4))
    if verify_shards:
        # the DES yields per-shard traces; totals are identical either way
        config = config.with_(fastpath=False)
    app_names = tuple(apps) if apps is not None else PAPER_APP_NAMES
    app_objs = [get_app(name) for name in app_names]
    engines = scaling_engines(gpu_counts, shared_link, numa_aware)
    counts = tuple(e.n_gpus for e in engines)
    datasets = {
        app.name: app.generate(n_bytes=data_bytes, seed=seed)
        for app in app_objs
    }

    scaling = MultiGpuScaling(
        seed=seed,
        data_bytes=data_bytes,
        gpu_counts=counts,
        shared_link=shared_link,
        numa_aware=numa_aware,
        apps=tuple(app_names),
    )

    cells = [(app, engine) for app in app_objs for engine in engines]
    results = run_cells(cells, datasets, config, jobs, backend)
    for (app, engine), res in zip(cells, results):
        scaling.results[(app.name, engine.n_gpus)] = res

    if config.functional:
        for app in app_objs:
            ref = scaling.get(app.name, counts[0])
            for n in counts[1:]:
                res = scaling.get(app.name, n)
                if not app.outputs_equal(ref.output, res.output):
                    raise ValidationFailure(
                        f"{n}-GPU merged output differs from "
                        f"{counts[0]}-GPU on {app.name}"
                    )

    if verify_shards:
        for (app, engine), res in zip(cells, results):
            _verify_cell_shards(app, res)

    if predict:
        from repro.analytic import predict_run

        for app, engine in cells:
            pred = predict_run(app, datasets[app.name], config, engine)
            scaling.predictions[(app.name, engine.n_gpus)] = pred.sim_time

    return scaling
