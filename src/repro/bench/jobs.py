"""Independent engine runs: picklable job specs and the one runner.

:func:`run_ordered` is how every harness fans independent runs out:
``sweep``'s grid points, ``chaos``'s (app, engine) blocks and the
cells of :func:`repro.bench.harness.run_matrix`. ``jobs`` is the only
knob: 1 runs serially, <= 0 means one worker per core, and with more
than one worker :func:`resolve_backend` picks threads or a process pool
from the runs themselves. Results come back in item order whatever ran
them, so a harness merges them exactly as its serial loop would.

A process pool cannot ship live objects to workers: engines carry
memoization caches, ``AppData`` holds tens of megabytes of arrays, and
pickling either would cost more than the run itself. Instead the parent
sends a :class:`JobSpec` — app name, generation recipe (seed, requested
bytes, datagen version), engine spec, and the frozen
:class:`~repro.engines.base.EngineConfig` — and each worker *regenerates*
the dataset locally. Generation is deterministic
(:func:`repro.apps.base.dataset_key` names datasets by exactly this
recipe), so every worker sees byte-identical data, and per-worker caches
(:data:`_WORKER_DATASETS`, :data:`_WORKER_ENGINES`) amortize the
regeneration and the engine's schedule memoization across all the points
a worker evaluates.

Only registry apps and registered engine classes, with any constructor
keywords, are spec-able: a hand-built ``AppData`` or an unregistered
engine class has no recipe a worker could replay, in which case
:func:`dataset_spec` / :func:`engine_to_spec` return ``None`` and the
runs stay on threads.
"""

from __future__ import annotations

import inspect
import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.apps.base import (
    APP_REGISTRY,
    AppData,
    Application,
    get_app,
    recipe_key,
)
from repro.apps.datagen import DATAGEN_VERSION
from repro.engines import ENGINES
from repro.engines.base import Engine, EngineConfig, EngineSpec, RunResult
from repro.errors import ReproError
from repro.hw.spec import hash_once
from repro.memo import Memo


@hash_once
@dataclass(frozen=True)
class DatasetSpec:
    """Generation recipe of one dataset — enough to regenerate it. It keys
    the server's dataset pool, so its hash is kept (``hash_once``)."""

    app: str
    seed: int
    #: requested size as passed to ``generate`` (None = the app default)
    n_bytes: Optional[int]
    #: :data:`repro.apps.datagen.DATAGEN_VERSION` at spec time
    version: int

    @property
    def key(self) -> tuple:
        """The content key (:func:`repro.apps.base.dataset_key`) of the
        dataset this recipe generates, without generating it."""
        return recipe_key(self.app, self.seed, self.n_bytes, self.version)

    @property
    def current(self) -> bool:
        """Does this build's generator reproduce the recipe?"""
        return self.version == DATAGEN_VERSION

    def check_version(self, holder: str) -> None:
        """Raise unless the recipe is :attr:`current`."""
        if not self.current:
            raise ReproError(
                f"dataset spec for {self.app!r} was made with datagen version "
                f"{self.version}, {holder} has {DATAGEN_VERSION}"
            )


@hash_once
@dataclass(frozen=True)
class JobSpec:
    """One engine run, fully described by value — safe to pickle. A
    served request's job is its duplicate key, so its hash is kept."""

    dataset: DatasetSpec
    engine: EngineSpec
    config: EngineConfig


def dataset_spec(app: Application, data: AppData) -> Optional[DatasetSpec]:
    """The dataset's regeneration recipe, or None when it has none.

    Requires the generation stamp (``data.meta["datagen"]``) *and* that
    ``app`` is exactly the registered class for its name — a worker
    reconstructs the app as ``get_app(name)``, which must produce the same
    generator.
    """
    recipe = data.meta.get("datagen")
    if recipe is None or data.app != app.name:
        return None
    if APP_REGISTRY.get(app.name) is not type(app):
        return None
    return DatasetSpec(
        app=app.name,
        seed=recipe["seed"],
        n_bytes=recipe["n_bytes"],
        version=recipe["version"],
    )


def engine_to_spec(engine: Engine) -> Optional[EngineSpec]:
    """The engine's :attr:`~repro.engines.base.Engine.identity`, or None
    when ``type(engine)`` is not the registered class for its name."""
    spec = engine.identity
    return spec if ENGINES.get(spec.name) is type(engine) else None


def engine_from_spec(spec: EngineSpec) -> Engine:
    """Rebuild the engine a spec names from the registry."""
    cls = ENGINES.get(spec.name)
    if cls is None:
        raise ReproError(f"unknown engine {spec.name!r} in job spec")
    params = dict(spec.params)
    unknown = params.keys() - inspect.signature(cls).parameters.keys()
    if unknown:
        raise ReproError(
            f"engine {spec.name!r} takes no keyword {sorted(unknown)}"
        )
    return cls(**params)


#: per-worker dataset cache: spec -> (app, data). A sweep fans one dataset
#: across many configs, so one regeneration serves a worker's whole share.
_WORKER_DATASETS = Memo("jobs.datasets", 4)

#: per-worker engine cache: reusing the instance keeps its schedule /
#: pattern / buffer memoization warm across the worker's grid points
_WORKER_ENGINES = Memo("jobs.engines", 64)


def materialize_dataset(spec: DatasetSpec) -> tuple[Application, AppData]:
    """Regenerate (and cache) the app + dataset a spec names."""
    cached = _WORKER_DATASETS.get(spec)
    if cached is None:
        spec.check_version("worker")
        app = get_app(spec.app)
        cached = (app, app.generate(n_bytes=spec.n_bytes, seed=spec.seed))
        _WORKER_DATASETS.put(spec, cached)
    return cached


def run_jobspec(spec: JobSpec, fresh: bool = False) -> RunResult:
    """Execute one job in this process: :func:`run_ordered`'s default
    process-pool worker. ``fresh=True`` generates the dataset anew
    instead of taking the worker's cached one, so the run computes its
    own functional pass (see :func:`repro.bench.harness.run_matrix`)."""
    if fresh:
        spec.dataset.check_version("worker")
        app = get_app(spec.dataset.app)
        data = app.generate(n_bytes=spec.dataset.n_bytes, seed=spec.dataset.seed)
    else:
        app, data = materialize_dataset(spec.dataset)
    engine = _WORKER_ENGINES.get_or_compute(
        spec.engine, lambda: engine_from_spec(spec.engine)
    )
    return engine.run(app, data, spec.config)


#: a process pool is used only for at least this many runs
PROCESS_MIN_ITEMS = 4


def _cores() -> int:
    return os.cpu_count() or 1


def resolve_backend(n_items: int, speccable: bool, des_bound: bool) -> str:
    """The executor for ``n_items`` runs on more than one worker.

    Returns ``"process"`` only when every run is spec-able, the runs are
    DES-bound (the pure-Python DES holds the GIL, so threads serialize
    them), the host has more than 2 cores, and there are at least
    :data:`PROCESS_MIN_ITEMS` runs; ``"thread"`` otherwise. Elsewhere
    the fork and regeneration tax does not amortize: on a 1-core runner a
    process pool measured 0.35x.
    """
    if (
        speccable
        and des_bound
        and _cores() > 2
        and n_items >= PROCESS_MIN_ITEMS
    ):
        return "process"
    return "thread"


def run_ordered(
    fn: Callable,
    items: Sequence,
    jobs: Optional[int] = 1,
    specs: Optional[Sequence] = None,
    des_bound: bool = True,
    worker: Callable = run_jobspec,
) -> list:
    """``[fn(item) for item in items]``, on up to ``jobs`` workers.

    ``jobs`` <= 0 (or None) means one worker per core. ``specs`` are the
    items' picklable twins, with ``worker(specs[i])`` equal to
    ``fn(items[i])``, or None when some item has none. A process pool
    ships only specs; threads and the serial loop call ``fn``. Results
    come back in item order whatever ran them. ``des_bound`` tells
    :func:`resolve_backend` whether the runs hold the GIL throughout.
    """
    if jobs == 1:  # the common serial call, kept lean
        return [fn(item) for item in items]
    workers = jobs if jobs is not None and jobs > 0 else _cores()
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    # looked up per call, so a test can stand in for either pool class
    from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

    if resolve_backend(len(items), specs is not None, des_bound) == "process":
        with ProcessPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(worker, specs))
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items))

