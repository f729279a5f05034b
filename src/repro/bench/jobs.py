"""Picklable job specifications for the process-pool execution backend.

``sweep(backend="process")`` and ``chaos --backend process`` cannot ship
live objects to workers: engines carry memoization caches, ``AppData``
holds tens of megabytes of arrays, and pickling either would cost more
than the run itself. Instead the parent sends a :class:`JobSpec` — app
name, generation recipe (seed, requested bytes, datagen version), engine
identity, and the frozen :class:`~repro.engines.base.EngineConfig` — and
each worker *regenerates* the dataset locally. Generation is deterministic
(:func:`repro.apps.base.dataset_key` names datasets by exactly this
recipe), so every worker sees byte-identical data, and per-worker caches
(:data:`_WORKER_DATASETS`, :data:`_WORKER_ENGINES`) amortize the
regeneration and the engine's schedule memoization across all the points
a worker evaluates.

Only registry apps and stock engines are spec-able: a hand-built
``AppData`` or a custom engine instance has no recipe a worker could
replay, in which case :func:`dataset_spec` / :func:`engine_to_spec` return
``None`` and the caller falls back to the thread backend (or raises, when
the process backend was requested explicitly).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.apps.base import (
    APP_REGISTRY,
    AppData,
    Application,
    get_app,
    recipe_key,
)
from repro.apps.datagen import DATAGEN_VERSION
from repro.engines.base import Engine, EngineConfig, RunResult
from repro.errors import ReproError


@dataclass(frozen=True)
class DatasetSpec:
    """Generation recipe of one dataset — enough to regenerate it."""

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


@dataclass(frozen=True)
class EngineSpec:
    """Engine identity: registry name plus the BigKernel feature label."""

    name: str
    variant: str = ""


@dataclass(frozen=True)
class JobSpec:
    """One engine run, fully described by value — safe to pickle."""

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
    """Identity of a stock engine, or None for custom engine types."""
    from repro.engines import ALL_ENGINES, UVM_ENGINES, BigKernelEngine
    from repro.engines.multigpu import MultiGpuBigKernelEngine
    from repro.engines.uvm import UvmSpec

    if type(engine) is MultiGpuBigKernelEngine:
        # the fabric rides in the variant: every constructor knob that
        # changes the timeline must survive the worker round-trip
        variant = ":".join(
            (
                engine.features.label,
                f"g{engine.n_gpus}",
                "shared" if engine.shared_link else "dedicated",
                "numa" if engine.numa_aware else "blind",
            )
        )
        return EngineSpec(name=MultiGpuBigKernelEngine.name, variant=variant)
    if type(engine) is BigKernelEngine:
        return EngineSpec(name=engine.name, variant=engine.features.label)
    if type(engine) in UVM_ENGINES:
        # only the stock paging model is replayable by name; a custom
        # UvmSpec has no registry recipe a worker could rebuild
        if engine.spec != UvmSpec():
            return None
        return EngineSpec(name=engine.name, variant=engine.prefetch or "")
    if type(engine) in ALL_ENGINES:
        return EngineSpec(name=engine.name)
    return None


def _features_from_label(label: str):
    from repro.engines import BigKernelFeatures

    factory = {
        "overlap-only": BigKernelFeatures.overlap_only,
        "volume-reduction": BigKernelFeatures.with_reduction,
        "full": BigKernelFeatures.full,
        "coalesce-only": lambda: BigKernelFeatures(
            reduce_volume=False, coalesce=True
        ),
    }.get(label or "full")
    if factory is None:
        raise ReproError(f"unknown BigKernel variant {label!r}")
    return factory()


def engine_from_spec(spec: EngineSpec) -> Engine:
    """Reconstruct the engine a spec names."""
    from repro.engines import ALL_ENGINES, BigKernelEngine
    from repro.engines.multigpu import MultiGpuBigKernelEngine

    if spec.name == MultiGpuBigKernelEngine.name:
        parts = spec.variant.split(":")
        if len(parts) != 4 or not parts[1].startswith("g"):
            raise ReproError(
                f"malformed multi-GPU engine variant {spec.variant!r}"
            )
        label, gpus, link, numa = parts
        return MultiGpuBigKernelEngine(
            n_gpus=int(gpus[1:]),
            features=_features_from_label(label),
            shared_link=link == "shared",
            numa_aware=numa == "numa",
        )
    if spec.name == BigKernelEngine.name:
        return BigKernelEngine(features=_features_from_label(spec.variant))
    from repro.engines import UVM_ENGINES

    for cls in UVM_ENGINES:
        if cls.name == spec.name:
            return cls(prefetch=spec.variant or None)
    for cls in ALL_ENGINES:
        if cls.name == spec.name:
            return cls()
    raise ReproError(f"unknown engine {spec.name!r} in job spec")


#: per-worker dataset cache: spec -> (app, data). A sweep fans one dataset
#: across many configs, so one regeneration serves a worker's whole share.
_WORKER_DATASETS: OrderedDict = OrderedDict()
_WORKER_DATASETS_MAX = 4

#: per-worker engine cache: reusing the instance keeps its schedule /
#: pattern / buffer memoization warm across the worker's grid points
_WORKER_ENGINES: dict = {}


def materialize_dataset(spec: DatasetSpec) -> tuple[Application, AppData]:
    """Regenerate (and cache) the app + dataset a spec names."""
    cached = _WORKER_DATASETS.get(spec)
    if cached is not None:
        _WORKER_DATASETS.move_to_end(spec)
        return cached
    spec.check_version("worker")
    app = get_app(spec.app)
    data = app.generate(n_bytes=spec.n_bytes, seed=spec.seed)
    _WORKER_DATASETS[spec] = (app, data)
    while len(_WORKER_DATASETS) > _WORKER_DATASETS_MAX:
        _WORKER_DATASETS.popitem(last=False)
    return app, data


def run_jobspec(spec: JobSpec) -> RunResult:
    """Execute one job in this process (the pool worker entry point)."""
    app, data = materialize_dataset(spec.dataset)
    engine = _WORKER_ENGINES.get(spec.engine)
    if engine is None:
        engine = _WORKER_ENGINES[spec.engine] = engine_from_spec(spec.engine)
    return engine.run(app, data, spec.config)
