"""The run matrix: every app x engine comparison, cross-checked.

:func:`run_matrix` is the one code path that runs an app x engine
comparison and checks it: the figures' five-scheme matrix, ``repro run``,
both ``repro bench`` ladders (:mod:`repro.bench.uvm`,
:mod:`repro.bench.multigpu`) and the ``repro verify`` pillars that run
engine cells each make one or more calls to it and only add their own
tables or grades.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Iterable, Optional

from repro.apps import ALL_APPS
from repro.apps.base import Application, is_registered
from repro.apps.datagen import DATAGEN_VERSION
from repro.bench.jobs import (
    DatasetSpec,
    JobSpec,
    engine_to_spec,
    run_jobspec,
    run_ordered,
)
from repro.engines import ALL_ENGINES, EngineConfig, RunResult
from repro.errors import ValidationFailure
from repro.units import MiB

if TYPE_CHECKING:
    from repro.verify.differential import Report


@dataclass
class BenchSettings:
    """Workload sizing shared across one harness invocation."""

    data_bytes: int = 8 * MiB
    seed: int = 7
    config: EngineConfig = field(default_factory=lambda: EngineConfig(chunk_bytes=2 * MiB))
    #: run the trace invariant checkers (repro.verify) on every traced run,
    #: and audit every shard of a sharded run
    check_invariants: bool = False


@dataclass
class Matrix:
    """Results of one apps-x-engines comparison, every cell on its own
    dataset of the one recipe (``data_bytes``, ``seed``)."""

    results: dict  # (app_name, engine_name) -> RunResult, in run order
    apps: tuple
    engines: tuple
    seed: int
    data_bytes: int
    #: the grades (:func:`repro.verify.differential.grade`), one
    #: :class:`~repro.verify.differential.Cell` per result, in run order
    report: Report

    def get(self, app: str, engine: str) -> RunResult:
        return self.results[(app, engine)]

    def sim_time(self, app: str, engine: str) -> float:
        return self.get(app, engine).sim_time

    def speedup(self, app: str, engine: str, baseline: Optional[str] = None) -> float:
        """How much faster ``engine`` is than ``baseline`` on ``app``; the
        baseline defaults to the first engine, the cross-check's
        reference."""
        return self.get(app, engine).speedup_over(
            self.get(app, baseline or self.engines[0])
        )


def run_matrix(
    settings: Optional[BenchSettings] = None,
    apps: Optional[Iterable[Application]] = None,
    engines: Optional[Iterable] = None,
    jobs: Optional[int] = 1,
) -> Matrix:
    """Run every engine on every app, each cell on its own freshly
    generated dataset of the recipe, and grade every cell.

    A fresh dataset per cell makes each cell run its own functional pass:
    on a shared one every engine after the first would return the first
    engine's memoized pass
    (:meth:`~repro.engines.base.Engine._functional_output`), and the
    cross-check would compare that pass with itself. ``jobs`` fans the
    cells out through :func:`repro.bench.jobs.run_ordered`, which counts
    them as DES-bound (unified-memory paging has no analytic fast path,
    and a shared root complex runs one joint DES); the results come back
    in cell order whatever ran them.

    Every cell is graded (:func:`repro.verify.differential.grade`): its
    output against the first engine's cell on the same app and, with
    ``settings.check_invariants``, its timeline against the invariant
    checkers. The grades stay on the matrix as its ``report``. Raises
    :class:`~repro.errors.ValidationFailure`, carrying the graded matrix,
    when a cell fails.
    """
    from repro.verify.differential import Report, grade

    settings = settings or BenchSettings()
    apps = tuple(apps) if apps is not None else tuple(cls() for cls in ALL_APPS)
    engines = (
        tuple(engines) if engines is not None else tuple(cls() for cls in ALL_ENGINES)
    )
    data_bytes, seed = settings.data_bytes, settings.seed
    config = settings.config
    if settings.check_invariants and config.fastpath:
        # invariant checking needs full timelines: force the DES (the
        # analytic fast path intentionally records no trace)
        config = config.with_(fastpath=False)

    cells = [(app, engine) for app in apps for engine in engines]
    specs = [
        JobSpec(
            DatasetSpec(app.name, seed, data_bytes, DATAGEN_VERSION),
            engine_to_spec(engine),
            config,
        )
        for app, engine in cells
    ]
    if not all(
        s.engine is not None and is_registered(app)
        for s, (app, _) in zip(specs, cells)
    ):
        specs = None
    results = run_ordered(
        lambda cell: cell[1].run(
            cell[0], cell[0].generate(n_bytes=data_bytes, seed=seed), config
        ),
        cells,
        jobs,
        specs=specs,
        worker=partial(run_jobspec, fresh=True),
    )
    ref_engine = engines[0].name
    report = Report(f"matrix vs {ref_engine}")
    for (app, engine), res in zip(cells, results):
        if engine is engines[0]:  # each app's cells start with its reference
            ref = res
        report.cells.append(
            grade(app, engine.name, ref, res, config, settings.check_invariants)
        )
    matrix = Matrix(
        results={
            (app.name, engine.name): res
            for (app, engine), res in zip(cells, results)
        },
        apps=tuple(a.name for a in apps),
        engines=tuple(e.name for e in engines),
        seed=seed,
        data_bytes=data_bytes,
        report=report,
    )
    if report.mismatches:
        first = report.mismatches[0]
        raise ValidationFailure(
            f"{first.engine} fails against {ref_engine} on {first.app}\n"
            f"{report.summary()}",
            matrix,
        )
    return matrix
