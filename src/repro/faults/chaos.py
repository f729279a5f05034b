"""The chaos sweep: an app x engine matrix under a grid of fault plans.

For every cell the runner executes the engine clean (no plan), then under
the plan, and checks that graceful degradation actually was graceful:

* the faulted run completes (or raises a *typed*
  :class:`~repro.errors.ReproError` subclass — anything else is a bug);
* the functional output still matches the ``cpu_serial`` oracle
  bit-for-bit (fault handling must never corrupt data);
* the faulted timeline passes every trace invariant — including byte
  conservation, which proves retried DMA attempts are accounted separately
  from delivered payload.

Everything is seeded and deterministic: the same seed produces a
byte-identical :class:`~repro.faults.report.FaultReport`
(``report.fingerprint()`` is the contract ``tests/test_faults.py`` pins).
That determinism is also what makes the sweep parallelizable. The grid is
split into per-(app, engine) *blocks*, and each block regenerates its
datasets (one per run) and oracle locally, so nothing is shipped between
processes but a picklable spec. The blocks run through
:func:`repro.bench.jobs.run_ordered`, the runner every harness shares,
serially or on ``jobs`` workers, and their plan-ordered cells come back in
the serial nesting order. The report fingerprint is therefore identical
whether the sweep ran serial, threaded, or across a process pool.
Exposed as ``python -m repro chaos [--quick] [--jobs N]``.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.apps import KMeansApp, WordCountApp
from repro.engines import (
    BigKernelEngine,
    CpuSerialEngine,
    EngineConfig,
    GpuDoubleBufferEngine,
    GpuUvmEngine,
)
from repro.errors import ReproError
from repro.faults.plan import FaultPlan
from repro.faults.report import FaultCell, FaultReport
from repro.units import MiB
from repro.verify.differential import grade


def default_fault_grid(seed: int = 7) -> tuple[FaultPlan, ...]:
    """One plan per primitive — the standard 4-fault chaos grid."""
    return (
        FaultPlan(seed=seed, name="pcie-degrade").pcie.degrade(gbps=2.0),
        FaultPlan(seed=seed, name="dma-retry").dma.error(chunk=1, retries=2),
        FaultPlan(seed=seed, name="assembly-stall").assembly.stall(ms=0.05),
        FaultPlan(seed=seed, name="pinned-pressure").pinned.deny(
            after_bytes=1 * MiB
        ),
    )


def _judge_outcome(
    app, ref, engine_name, clean, plan, config, outcome
) -> FaultCell:
    """Score one faulted-run outcome against the oracle and the clean run.

    ``outcome`` is either a :class:`~repro.engines.base.RunResult` or the
    typed :class:`~repro.errors.ReproError` the run raised. A result is
    graded by :func:`repro.verify.differential.grade`, the grader of
    every engine cell: its output against the oracle's, its timeline
    against the invariant checkers. Splitting the judge from the run is
    what lets serve mode grade outcomes that came back through a live
    :class:`~repro.serve.Server` with the exact same code that grades
    direct runs — the fingerprint contract depends on it.
    """
    cell = FaultCell(
        app=app.name,
        engine=engine_name,
        plan=plan.name or plan.describe(),
        clean_time=clean.sim_time,
    )
    if isinstance(outcome, ReproError):
        # a typed error is a *policy decision* (e.g. a DMA fault
        # past the retry budget), not a crash — but the default
        # grid is recoverable, so it still fails the cell
        cell.ok = False
        cell.error = type(outcome).__name__
        cell.detail = str(outcome)
        return cell
    res = outcome
    cell.fault_time = res.sim_time
    cell.degradations = dict(res.metrics.notes.get("degradations", {}))
    if "degraded_from" in res.metrics.notes:
        cell.degradations["fallback"] = (
            f"{res.metrics.notes['degraded_from']}->{res.engine}"
        )
    cell.stats = dict(res.metrics.notes.get("fault_stats", {}))
    graded = grade(app, engine_name, ref, res, config.with_(faults=plan),
                   audit=True)
    cell.ok, cell.detail = graded.ok, graded.detail
    return cell


def _serve_cell_block(
    app, engine, plans, config, seed, data_bytes
) -> list[FaultCell]:
    """One (app, engine) block with every faulted run routed through a live
    :class:`~repro.serve.Server` instead of a direct ``engine.run``.

    The server runs with caching off (a faulted run must actually execute)
    and the judge is the same :func:`_judge_outcome` as direct mode, so
    the resulting cells — and therefore ``report.fingerprint()`` — are
    identical to a direct sweep over the same grid. That equality is the
    graceful-degradation contract for the serving layer: a fault inside a
    batch produces a typed per-request failure, never a wedged server.
    """
    from repro.apps.base import APP_REGISTRY
    from repro.apps.datagen import DATAGEN_VERSION
    from repro.bench.jobs import DatasetSpec, JobSpec, engine_to_spec
    from repro.serve.scheduler import ServeConfig, Server
    from repro.serve.workload import ServeRequest

    engine_spec = engine_to_spec(engine)
    if engine_spec is None or APP_REGISTRY.get(app.name) is not type(app):
        raise ReproError(
            "chaos serve mode needs registry apps and registry engines "
            "(requests ride as picklable job specs)"
        )
    data = app.generate(n_bytes=data_bytes, seed=seed)
    ref = CpuSerialEngine().run(app, data, config)
    clean = engine.run(app, data, config)
    dataset = DatasetSpec(
        app=app.name, seed=seed, n_bytes=data_bytes, version=DATAGEN_VERSION
    )
    serve_config = ServeConfig(
        cache=False, max_queue=len(plans) + 1, max_batch=max(len(plans), 1)
    )
    with Server(serve_config) as server:
        for i, plan in enumerate(plans):
            job = JobSpec(
                dataset=dataset,
                engine=engine_spec,
                config=config.with_(faults=plan),
            )
            rejection = server.submit(
                ServeRequest(req_id=i, tenant="chaos", arrival=0.0, job=job)
            )
            if rejection is not None:  # sized above the grid; cannot happen
                raise ReproError("chaos serve queue rejected a grid cell")
        responses = {resp.req_id: resp for resp in server.drain()}
    cells = []
    for i, plan in enumerate(plans):
        resp = responses[i]
        outcome = resp.exception if resp.exception is not None else resp.result
        if outcome is None:
            raise ReproError(
                f"serve chaos cell {plan.name!r} came back with neither a "
                f"result nor a typed error (status {resp.status!r})"
            )
        cells.append(
            _judge_outcome(app, ref, engine.name, clean, plan, config, outcome)
        )
    return cells


def _cell_block(app, engine, plans, config, seed, data_bytes) -> list[FaultCell]:
    """All cells of one (app, engine) block, in plan order.

    Every run of the block (the oracle, the clean run and each faulted
    run) gets its own freshly generated dataset of the block's recipe, so
    each computes its own functional pass: on a shared dataset every run
    after the first would return the first one's memoized pass, and the
    check against the oracle would not see a degraded plan's output.
    Generation is deterministic, so the block is self-contained and its
    cells are the same, byte for byte, on whichever worker runs it.
    """
    def fresh():
        return app.generate(n_bytes=data_bytes, seed=seed)

    ref = CpuSerialEngine().run(app, fresh(), config)
    clean = engine.run(app, fresh(), config)
    cells = []
    for plan in plans:
        try:
            outcome = engine.run(app, fresh(), config.with_(faults=plan))
        except ReproError as exc:
            outcome = exc
        cells.append(
            _judge_outcome(app, ref, engine.name, clean, plan, config, outcome)
        )
    return cells


def _cell_block_spec(task) -> list[FaultCell]:
    """Process-pool worker entry: rebuild the block from picklable specs."""
    app_name, engine_spec, plans, config, seed, data_bytes = task
    from repro.apps.base import get_app
    from repro.bench.jobs import engine_from_spec

    return _cell_block(
        get_app(app_name), engine_from_spec(engine_spec), plans, config,
        seed, data_bytes,
    )


def run_chaos(
    quick: bool = False,
    seed: int = 7,
    data_bytes: Optional[int] = None,
    apps: Optional[Iterable] = None,
    engines: Optional[Iterable] = None,
    plans: Optional[Iterable[FaultPlan]] = None,
    config: Optional[EngineConfig] = None,
    jobs: int = 1,
    serve: bool = False,
) -> FaultReport:
    """Run the fault grid over the app x engine matrix.

    ``quick`` is CI scale: one app, 1 MiB datasets. The full sweep covers a
    write-free app (wordcount) and a mapped-writes app (kmeans, which
    exercises the 6-stage pipeline and the pinned write-landing buffers).
    Both scales include the unified-memory engine, so every fault primitive
    is also exercised against the demand-paging migration path.

    ``jobs`` fans the per-(app, engine) blocks out through
    :func:`repro.bench.jobs.run_ordered`, whose rule counts faulted runs as
    DES-bound: a process pool gets picklable block specs, threads share
    the live instances (and so also take custom apps and engines). Cells
    are merged in the serial nesting order, so ``report.fingerprint()`` is
    the same whatever ran the blocks.

    ``serve=True`` routes every faulted run through a live
    :class:`~repro.serve.Server` (``jobs`` is ignored: the server under
    test runs in-process) and must produce the identical fingerprint:
    fault containment has to survive the batching layer.
    """
    data_bytes = data_bytes or (1 * MiB if quick else 4 * MiB)
    config = config or EngineConfig(chunk_bytes=max(256 * 1024, data_bytes // 8))
    apps = (
        list(apps)
        if apps is not None
        else ([WordCountApp()] if quick else [WordCountApp(), KMeansApp()])
    )
    engines = (
        list(engines)
        if engines is not None
        else [GpuDoubleBufferEngine(), BigKernelEngine(), GpuUvmEngine()]
    )
    plans = tuple(plans) if plans is not None else default_fault_grid(seed)

    from repro.apps.base import APP_REGISTRY
    from repro.bench.jobs import engine_to_spec, run_ordered

    blocks = [(app, engine) for app in apps for engine in engines]
    tasks = [
        (app.name, engine_to_spec(engine), plans, config, seed, data_bytes)
        for app, engine in blocks
    ]
    speccable = all(
        APP_REGISTRY.get(app.name) is type(app) for app in apps
    ) and all(task[1] is not None for task in tasks)
    run_block = _cell_block
    if serve:  # the server under test runs in-process, one block at a time
        run_block, jobs = _serve_cell_block, 1
    report = FaultReport(seed=seed)
    for cells in run_ordered(
        lambda block: run_block(*block, plans, config, seed, data_bytes),
        blocks,
        jobs,
        specs=tasks if speccable else None,
        worker=_cell_block_spec,
    ):
        report.cells.extend(cells)
    return report
