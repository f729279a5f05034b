"""Run-matrix harness: all apps x all schemes, with dataset caching."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.apps import ALL_APPS, get_app
from repro.apps.base import AppData, Application
from repro.bench.sweep import cached_run
from repro.engines import (
    ALL_ENGINES,
    BigKernelEngine,
    CpuMtEngine,
    CpuSerialEngine,
    EngineConfig,
    GpuDoubleBufferEngine,
    GpuSingleBufferEngine,
    RunResult,
)
from repro.errors import ValidationFailure
from repro.units import MiB


@dataclass
class BenchSettings:
    """Workload sizing shared across one harness invocation."""

    data_bytes: int = 8 * MiB
    seed: int = 7
    config: EngineConfig = field(default_factory=lambda: EngineConfig(chunk_bytes=2 * MiB))
    #: cross-check every engine's output against the serial reference
    validate: bool = True
    #: run the trace invariant checkers (repro.verify) on every traced run
    check_invariants: bool = False
    #: route engine runs through the process-wide two-tier RunCache
    #: (:data:`repro.bench.sweep.RUN_CACHE`) — repeated harness invocations
    #: (every figure re-running the same matrix) and even separate
    #: processes then evaluate each (engine, app, dataset, config) cell
    #: once, via the persistent content-keyed disk tier
    cache: bool = False


@dataclass
class Matrix:
    """Results of one apps-x-engines sweep."""

    results: dict  # (app_name, engine_name) -> RunResult
    apps: tuple
    engines: tuple

    def get(self, app: str, engine: str) -> RunResult:
        return self.results[(app, engine)]

    def speedup(self, app: str, engine: str, baseline: str = "cpu_serial") -> float:
        return self.get(app, engine).speedup_over(self.get(app, baseline))


def default_engines():
    return (
        CpuSerialEngine(),
        CpuMtEngine(),
        GpuSingleBufferEngine(),
        GpuDoubleBufferEngine(),
        BigKernelEngine(),
    )


def run_matrix(
    settings: Optional[BenchSettings] = None,
    apps: Optional[Iterable[Application]] = None,
    engines: Optional[Iterable] = None,
) -> Matrix:
    """Run every engine on every app; validates output equality."""
    settings = settings or BenchSettings()
    apps = tuple(apps) if apps is not None else tuple(cls() for cls in ALL_APPS)
    engines = tuple(engines) if engines is not None else default_engines()

    config = settings.config
    if settings.check_invariants and config.fastpath:
        # invariant checking needs full timelines: force the DES (the
        # analytic fast path intentionally records no trace)
        config = config.with_(fastpath=False)

    results: dict = {}
    for app in apps:
        data = app.generate(n_bytes=settings.data_bytes, seed=settings.seed)
        reference = None
        for engine in engines:
            res = (
                cached_run(engine, app, data, config)
                if settings.cache
                else engine.run(app, data, config)
            )
            results[(app.name, engine.name)] = res
            if reference is None:
                reference = res
            elif settings.validate and config.functional and not app.outputs_equal(
                reference.output, res.output
            ):
                raise ValidationFailure(
                    f"{engine.name} output differs from {reference.engine} "
                    f"on {app.name}"
                )
            if settings.check_invariants and res.trace is not None:
                from repro.verify.invariants import verify_run

                report = verify_run(res, config)
                if not report.ok:
                    raise ValidationFailure(
                        f"{engine.name} timeline on {app.name} violates "
                        f"pipeline invariants:\n{report.summary()}"
                    )
    return Matrix(
        results=results,
        apps=tuple(a.name for a in apps),
        engines=tuple(e.name for e in engines),
    )
