"""The run matrix: every app x engine comparison, cross-checked.

:func:`run_matrix` is the one code path that runs an app x engine
comparison and checks it: the figures' five-scheme matrix, ``repro run``
and both ``repro bench`` ladders (:mod:`repro.bench.uvm`,
:mod:`repro.bench.multigpu`) each make one call to it and only add their
own tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Optional

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
    generated dataset of the recipe, and cross-check the outputs.

    A fresh dataset per cell makes each cell run its own functional pass:
    on a shared one every engine after the first would return the first
    engine's memoized pass
    (:meth:`~repro.engines.base.Engine._functional_output`), and the
    cross-check would compare that pass with itself. ``jobs`` fans the
    cells out through :func:`repro.bench.jobs.run_ordered`, which counts
    them as DES-bound (unified-memory paging has no analytic fast path,
    and a shared root complex runs one joint DES); the results come back
    in cell order whatever ran them. Raises
    :class:`~repro.errors.ValidationFailure` when a cell's output differs
    from the first engine's on the same app, or, with
    ``settings.check_invariants``, when its timeline breaks an invariant.
    """
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
    matrix = Matrix(
        results={
            (app.name, engine.name): res
            for (app, engine), res in zip(cells, results)
        },
        apps=tuple(a.name for a in apps),
        engines=tuple(e.name for e in engines),
        seed=seed,
        data_bytes=data_bytes,
    )
    _check(matrix, apps, config, settings.check_invariants)
    return matrix


def _check(
    matrix: Matrix, apps: tuple, config: EngineConfig, check_invariants: bool
) -> None:
    """Compare every cell's output with the first engine's cell on the same
    app and, when asked, audit every cell's timeline; raise on the first
    failure."""
    from repro.verify.invariants import audit_sharded_run, verify_run

    for app in apps:
        ref = None
        for engine in matrix.engines:
            res = matrix.get(app.name, engine)
            if ref is None:
                ref = res
            elif config.functional and not app.outputs_equal(ref.output, res.output):
                raise ValidationFailure(
                    f"{engine} output differs from {ref.engine} on {app.name}"
                )
            if not check_invariants:
                continue
            if getattr(res, "shard_details", None) is not None:
                problems = "; ".join(audit_sharded_run(res))
            else:
                report = verify_run(res, config)
                problems = "" if report.ok else report.summary()
            if problems:
                raise ValidationFailure(
                    f"{engine} timeline on {app.name} violates pipeline "
                    f"invariants:\n{problems}"
                )
