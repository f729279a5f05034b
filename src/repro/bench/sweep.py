"""Parameter sweeps and the per-scheme autotuner.

The paper states (Section VI) that *each implementation is configured to
run with the number of GPU computation threads [and] buffer sizes that
result in the best execution time, as determined through
experimentation*. :func:`autotune` reproduces that methodology: it sweeps
a small grid per engine/app pair and returns the fastest configuration.

Two levers keep big grids fast (``docs/performance.md``):

* ``jobs=N`` and ``backend=`` fan the grid points out through
  :func:`repro.bench.jobs.run_ordered`, the runner every harness shares.
  Points are independent engine runs, and results merge back in grid
  order, so the outcome — including every tie-break — is identical to the
  serial sweep. The sweep tells the runner whether its points are
  DES-bound (:func:`_des_bound`), which is what ``backend="auto"`` weighs.
* ``cache=True`` consults the two-tier :class:`RunCache`: an in-process
  LRU keyed on dataset *identity* in front of a persistent on-disk store
  (:class:`DiskCache`, SHA-256 content key under ``.repro-cache/``) keyed
  on dataset *content* — so repeated autotunes in one process, across
  processes, and across CI runs all evaluate each point once.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Optional

from repro.apps.base import AppData, Application, data_fingerprint, dataset_key
from repro.bench.jobs import JobSpec, dataset_spec, engine_to_spec, run_ordered
from repro.engines.base import Engine, EngineConfig, RunResult
from repro.errors import ReproError
from repro.units import MiB

#: Schema version of the persistent cache. Part of every disk key: bump it
#: whenever RunResult's shape or the simulation's timing semantics change,
#: so stale entries from older builds are keyed away rather than reused.
CACHE_SCHEMA_VERSION = 1

#: environment switch that disables the persistent tier entirely
_DISK_CACHE_OFF_ENV = "REPRO_NO_DISK_CACHE"
#: environment override for the persistent tier's location
_DISK_CACHE_DIR_ENV = "REPRO_CACHE_DIR"


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated configuration."""

    params: dict
    sim_time: float
    result: RunResult = field(compare=False, repr=False)


@dataclass
class SweepResult:
    """All points of one sweep, with the winner."""

    points: list[SweepPoint]

    @property
    def best(self) -> SweepPoint:
        """The fastest point, with deterministic tie-breaking.

        Ties on ``sim_time`` are resolved toward the *smallest* resource
        footprint: lowest ``chunk_bytes`` first, then lowest
        ``num_blocks``, then grid order (``min`` is stable). Configuration-
        insensitive plateaus — common for CPU-bound apps — therefore
        always tune to the same config, whatever the grid order.
        """
        if not self.points:
            raise ReproError("sweep produced no points")
        inf = float("inf")
        return min(
            self.points,
            key=lambda p: (
                p.sim_time,
                p.params.get("chunk_bytes", inf),
                p.params.get("num_blocks", inf),
            ),
        )

    def series(self, key: str) -> dict:
        """``param value -> sim time`` for rendering."""
        return {p.params[key]: p.sim_time for p in self.points}


class DiskCache:
    """Persistent run-result store: one pickle per SHA-256 content key.

    Layout is ``<root>/<digest[:2]>/<digest[2:]>.pkl`` (git-object style
    fan-out). The root is resolved *per operation* — ``REPRO_CACHE_DIR``
    when set, else ``.repro-cache`` under the current directory — so tests
    and CI can redirect it without rebuilding caches. Writes go through a
    temp file + ``os.replace`` (atomic on POSIX), so concurrent writers
    (parallel sweeps, figure harnesses racing in CI) can only ever produce
    a complete entry; unreadable entries are treated as misses and
    deleted. Eviction is approximate LRU: reads bump mtime, and every
    :data:`_EVICT_EVERY` puts the oldest entries beyond ``max_entries``
    are removed. Setting ``REPRO_NO_DISK_CACHE`` makes every operation a
    no-op.
    """

    _EVICT_EVERY = 50
    #: orphaned temp files (a writer killed mid-``put``) older than this
    #: are swept during eviction; generous enough that no live writer —
    #: entries are small pickles — can still be mid-write
    _TMP_MAX_AGE = 300.0
    #: per-process counter making every temp filename unique: two threads
    #: of one process racing on the same digest must not share a temp file
    _tmp_seq = itertools.count()

    def __init__(self, root: Optional[os.PathLike] = None, max_entries: int = 4096):
        self._root = root
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._puts = 0
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return not os.environ.get(_DISK_CACHE_OFF_ENV)

    @property
    def root(self) -> Path:
        return Path(
            self._root
            or os.environ.get(_DISK_CACHE_DIR_ENV)
            or ".repro-cache"
        )

    def _path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest[2:]}.pkl"

    def get(self, digest: str) -> Optional[RunResult]:
        if not self.enabled:
            return None
        path = self._path(digest)
        try:
            with open(path, "rb") as fh:
                result = pickle.load(fh)
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return None
        except Exception:
            # truncated/stale/unreadable entry: a miss, and not worth keeping
            try:
                path.unlink()
            except OSError:
                pass
            with self._lock:
                self.misses += 1
            return None
        try:
            os.utime(path)  # approximate-LRU recency bump
        except OSError:
            pass
        with self._lock:
            self.hits += 1
        return result

    def put(self, digest: str, result: RunResult) -> None:
        if not self.enabled:
            return
        path = self._path(digest)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.parent / (
                f".{path.name}.{os.getpid()}.{next(self._tmp_seq)}.tmp"
            )
            with open(tmp, "wb") as fh:
                pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            return  # cache writes are best-effort, never fatal
        with self._lock:
            self._puts += 1
            evict = self._puts % self._EVICT_EVERY == 0
        if evict:
            self._evict()

    def _evict(self) -> None:
        # Concurrent writers race this scan: an entry listed by glob may be
        # unlinked (another evictor, a clear(), a corrupt-entry reaper)
        # before it is stat'ed — treat every stat/unlink as best-effort.
        def mtime(path: Path) -> Optional[float]:
            try:
                return path.stat().st_mtime
            except OSError:
                return None

        entries = sorted(
            (m, p)
            for p in self.root.glob("??/*.pkl")
            if (m := mtime(p)) is not None
        )
        for _, path in entries[: max(0, len(entries) - self.max_entries)]:
            try:
                path.unlink()
            except OSError:
                pass
        # sweep temp files orphaned by a writer that died mid-put
        now = time.time()
        for tmp in self.root.glob("??/.*.tmp"):
            age = mtime(tmp)
            if age is not None and now - age > self._TMP_MAX_AGE:
                try:
                    tmp.unlink()
                except OSError:
                    pass

    def __len__(self) -> int:
        if not self.enabled or not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*.pkl"))

    def clear(self) -> None:
        if not self.root.is_dir():
            return
        for path in self.root.glob("??/*.pkl"):
            try:
                path.unlink()
            except OSError:
                pass
        with self._lock:
            self.hits = self.misses = self._puts = 0


def run_digest(key: tuple) -> str:
    """SHA-256 disk key of a run named by content identities only.

    ``key`` is ``(engine cache_key, app name, dataset content key,
    config)``: every component is stable across processes — the dataset
    is named by :func:`repro.apps.base.dataset_key` (recipe or byte hash,
    never the per-instance fingerprint), and the frozen config's repr is
    deterministic (it includes the hardware spec and any fault plan).
    :data:`CACHE_SCHEMA_VERSION` folds the build generation in.
    """
    payload = repr((CACHE_SCHEMA_VERSION,) + key)
    return hashlib.sha256(payload.encode()).hexdigest()


def content_run_key(
    engine: Engine, app: Application, data: AppData, config: EngineConfig
) -> str:
    """:func:`run_digest` of one run on a dataset in hand.

    A generated dataset's content key is its recipe, so this equals the
    digest of :meth:`RunCache.recipe_key` for the job that names the same
    recipe: a sweep-written disk entry and a server lookup share one file.
    """
    return run_digest((engine.cache_key, app.name, dataset_key(data), config))


class RunCache:
    """Two-tier cache of engine runs, keyed on everything a run reads.

    The front tier is a thread-safe in-process LRU. A sweep keys it with
    :meth:`key`, ``(engine cache_key, app name, dataset *identity*
    fingerprint, config)``: the fingerprint
    (:func:`repro.apps.base.data_fingerprint`) is minted per dataset
    *instance*, so a stale hit is impossible even if the caller — who owns
    the ``AppData`` — mutates or regenerates it. The server keys it with
    :meth:`recipe_key`, the same tuple with the dataset's recipe in place
    of the fingerprint: it owns every dataset it builds, builds each one
    from its recipe, and so can look a job up with no dataset in hand.

    Behind it sits an optional persistent :class:`DiskCache` keyed by
    :func:`run_digest` over dataset *content*, not identity — which is
    what lets a fresh process (a figure harness, a CI job, a pool worker's
    parent) reuse points evaluated by an earlier one. A disk hit is
    promoted into the memory tier under the caller's key.
    """

    def __init__(self, maxsize: int = 512, disk: Optional[DiskCache] = None):
        self.maxsize = maxsize
        self.disk = disk
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0

    @staticmethod
    def key(engine: Engine, app: Application, data: AppData, config: EngineConfig):
        return (engine.cache_key, app.name, data_fingerprint(data), config)

    @staticmethod
    def recipe_key(engine: Engine, job: JobSpec) -> tuple:
        """Content key of a job, from its recipe alone; :func:`run_digest`
        of it is the job's disk key."""
        return (engine.cache_key, job.dataset.app, job.dataset.key, job.config)

    def get(self, key, disk_key: Optional[str] = None) -> Optional[RunResult]:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
        if self.disk is not None and disk_key is not None:
            result = self.disk.get(disk_key)
            if result is not None:
                with self._lock:
                    self._store(key, result)
                    self.hits += 1
                    self.disk_hits += 1
                return result
        with self._lock:
            self.misses += 1
        return None

    def contains(self, key) -> bool:
        """Silent membership probe of the memory tier.

        No stats update, no LRU touch, no disk promotion — the serving
        layer's admission pricer uses this to cost repeat jobs at zero
        without perturbing the hit/miss accounting of real lookups.
        """
        with self._lock:
            return key in self._entries

    def put(self, key, result: RunResult, disk_key: Optional[str] = None) -> None:
        with self._lock:
            self._store(key, result)
        if self.disk is not None and disk_key is not None:
            self.disk.put(disk_key, result)

    def _store(self, key, result: RunResult) -> None:
        # caller holds self._lock
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self, disk: bool = False) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.disk_hits = 0
        if disk and self.disk is not None:
            self.disk.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: process-wide two-tier run cache used by ``sweep(..., cache=True)``
RUN_CACHE = RunCache(disk=DiskCache())


def _des_bound(app: Application, config: EngineConfig) -> bool:
    """Will grid points resolve on the pure-Python DES (GIL-bound)?

    Mirrors the fast-path fallback matrix (``docs/performance.md``): an
    active fault plan forces the DES, ``fastpath=False`` asks for it, and
    mapped-writes apps fall back chunk by chunk.
    """
    if config.faults is not None and config.faults.active():
        return True
    return not config.fastpath or app.writes_mapped


def _cached_runs(
    engine: Engine,
    app: Application,
    data: AppData,
    configs: list,
    items: list,
    run_items: Callable[[list], list],
) -> list[RunResult]:
    """The runs of ``configs`` through the process-wide :data:`RUN_CACHE`.

    ``items[i]`` describes the run of ``configs[i]`` to ``run_items``. The
    cache is probed for every config, ``run_items`` gets the items of the
    misses in one call, and the results it returns are put back. The disk
    tier is consulted only while it is enabled.
    """
    disk = RUN_CACHE.disk
    disk_on = disk is not None and disk.enabled
    keys = [
        (
            RunCache.key(engine, app, data, cfg),
            content_run_key(engine, app, data, cfg) if disk_on else None,
        )
        for cfg in configs
    ]
    results = [RUN_CACHE.get(*key) for key in keys]
    misses = [i for i, result in enumerate(results) if result is None]
    for i, result in zip(misses, run_items([items[i] for i in misses])):
        results[i] = result
        RUN_CACHE.put(keys[i][0], result, keys[i][1])
    return results


def cached_run(
    engine: Engine, app: Application, data: AppData, config: EngineConfig
) -> RunResult:
    """One engine run through the process-wide :data:`RUN_CACHE`."""
    (result,) = _cached_runs(
        engine,
        app,
        data,
        [config],
        [config],
        lambda configs: [engine.run(app, data, cfg) for cfg in configs],
    )
    return result


def _run_points(
    engine: Engine,
    app: Application,
    data: AppData,
    base_config: EngineConfig,
    jobs: Optional[int],
    backend: str,
    points: list,
) -> list[RunResult]:
    """Run grid points (override dicts) through the shared runner.

    The points are described as job specs only when ``jobs`` may hand
    them to a pool: a serial sweep builds none.
    """
    specs, des_bound = None, False
    if jobs != 1:
        dspec, espec = dataset_spec(app, data), engine_to_spec(engine)
        if dspec is not None and espec is not None:
            specs = [
                JobSpec(dspec, espec, base_config.with_(**chosen))
                for chosen in points
            ]
        des_bound = _des_bound(app, base_config)
    return run_ordered(
        lambda chosen: engine.run(app, data, base_config.with_(**chosen)),
        points,
        jobs,
        backend,
        specs,
        des_bound,
    )


def _sweep_analytic(
    engine: Engine,
    app: Application,
    data: AppData,
    base_config: EngineConfig,
    grid: dict,
) -> SweepResult:
    """Price every grid point with the closed-form predictor."""
    from repro.analytic import predict_grid

    gp = predict_grid(app, data, grid, base_config, engine=engine)
    points = []
    for i, sim in enumerate(gp.sim_time):
        points.append(SweepPoint(gp.params_at(i), float(sim), None))
    return SweepResult(points)


def _hybrid_candidates(
    engine: Engine,
    app: Application,
    data: AppData,
    base_config: EngineConfig,
    grid: dict,
    combos: list,
    top_k: int,
) -> list:
    """Keep the analytically-best ``top_k`` combos (ties expanded).

    ``predict_grid`` enumerates sorted keys x listed values — the same
    order ``combos`` was built in — so selected flat indices map straight
    back. Returning them sorted preserves grid order, which keeps every
    downstream tie-break (and the process backend's merge) identical to a
    pure-DES sweep over the same candidate set.
    """
    if top_k >= len(combos):
        return combos
    from repro.analytic import predict_grid

    gp = predict_grid(app, data, grid, base_config, engine=engine)
    selected = sorted(gp.top(top_k, expand_ties=True))
    return [combos[i] for i in selected]


def sweep(
    engine: Engine,
    app: Application,
    data: AppData,
    base_config: EngineConfig,
    grid: dict,
    jobs: int = 1,
    cache: bool = False,
    backend: str = "auto",
    mode: str = "des",
    top_k: int = 8,
) -> SweepResult:
    """Run ``engine`` over the cartesian product of ``grid`` overrides.

    ``grid`` maps EngineConfig field names to candidate value lists; the
    product is enumerated in deterministic order (sorted keys, listed
    values). ``cache=True`` first probes the process-wide two-tier
    :data:`RUN_CACHE` (in-memory LRU + on-disk content-keyed store) for
    every point; the misses then run through
    :func:`repro.bench.jobs.run_ordered` on ``jobs`` workers (0/None means
    one per CPU) and ``backend`` (``"thread"``, ``"process"`` or
    ``"auto"``, told whether the points are DES-bound: faulted,
    ``fastpath=False`` or mapped-writes runs), and their results are put
    back in the cache. Whatever the backend, results merge in grid order,
    so the points list and the tie-broken winner are identical to the
    serial sweep's.

    ``mode`` selects how points are evaluated:

    - ``"des"`` (default): simulate every point.
    - ``"analytic"``: price every point with the closed-form predictor
      (``repro.analytic.predict_grid``) — no simulation at all, points
      carry ``result=None``. Grids limited to the predictor's sweepable
      fields; for million-point scans call ``predict_grid`` directly and
      skip the per-point ``SweepPoint`` materialization.
    - ``"hybrid"``: rank the full grid analytically, then DES-evaluate
      only the best ``top_k`` candidates (plus any points whose
      prediction exactly ties the k-th — analytic plateaus are bitwise
      ties), through the normal backend/cache machinery. The analytic
      ranking uses the same ``(sim_time, chunk_bytes, num_blocks, grid
      order)`` tie-break as :meth:`SweepResult.best`, so on plateaus the
      hybrid winner is identical to the pure-DES winner.
    """
    keys = sorted(grid)
    combos = [
        dict(zip(keys, values))
        for values in itertools.product(*[grid[k] for k in keys])
    ]

    if mode not in ("des", "analytic", "hybrid"):
        raise ReproError(f"unknown sweep mode {mode!r}: des | analytic | hybrid")
    if mode == "analytic":
        return _sweep_analytic(engine, app, data, base_config, grid)
    if mode == "hybrid" and len(combos) > 1:
        combos = _hybrid_candidates(
            engine, app, data, base_config, grid, combos, top_k
        )

    if cache:
        results = _cached_runs(
            engine,
            app,
            data,
            [base_config.with_(**chosen) for chosen in combos],
            combos,
            partial(_run_points, engine, app, data, base_config, jobs, backend),
        )
    else:
        results = _run_points(
            engine, app, data, base_config, jobs, backend, combos
        )
    points = []  # a loop, not a comprehension: single-point sweeps are hot
    for chosen, result in zip(combos, results):
        points.append(SweepPoint(chosen, result.sim_time, result))
    return SweepResult(points)


#: the default tuning grid: buffer size and launch width, the two knobs
#: the paper tunes per implementation
DEFAULT_GRID = {
    "chunk_bytes": [512 * 1024, 1 * MiB, 2 * MiB, 4 * MiB],
    "num_blocks": [8, 16],
}


def autotune(
    engine: Engine,
    app: Application,
    data: AppData,
    base_config: Optional[EngineConfig] = None,
    grid: Optional[dict] = None,
    jobs: int = 1,
    cache: bool = False,
    backend: str = "auto",
    mode: str = "des",
    top_k: int = 8,
) -> tuple[EngineConfig, SweepResult]:
    """Find the engine's best configuration for this app/dataset.

    Returns ``(best_config, full_sweep)`` where ``best_config`` is
    ``base_config`` with the winning grid overrides applied (all other
    base fields preserved). Ties follow :meth:`SweepResult.best`'s
    deterministic ordering. CPU engines are configuration-insensitive and
    short-circuit to the base config. ``jobs``/``cache``/``backend``/
    ``mode``/``top_k`` pass through to :func:`sweep`.
    """
    base_config = base_config or EngineConfig()
    if engine.name.startswith("cpu"):
        result = engine.run(app, data, base_config)
        return base_config, SweepResult(
            [SweepPoint({}, result.sim_time, result)]
        )
    res = sweep(
        engine,
        app,
        data,
        base_config,
        grid or DEFAULT_GRID,
        jobs=jobs,
        cache=cache,
        backend=backend,
        mode=mode,
        top_k=top_k,
    )
    return base_config.with_(**res.best.params), res
