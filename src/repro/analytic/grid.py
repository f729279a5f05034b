"""Vectorized whole-grid prediction: ``predict_grid``.

``predict_run`` prices one configuration; ``predict_grid`` prices a whole
sweep grid (chunk bytes × blocks × threads × ring depth) with the same
code, fed NumPy arrays instead of numbers. The hardware models
(:mod:`repro.hw`) and each engine's chunk costs (``chunk_costs`` on the
pipelined engines, ``serial_chain`` on ``gpu_single``) take a number or
an array and return the same kind; :func:`~repro.runtime.fastpath.split_units`
cuts the template/tail geometry; and ``predict_templated`` and
``sharded_total`` close the ring and combine shards for both. This module
holds only grid plumbing: axes, enumeration and ranking. A million
configurations price in a few seconds, with no Python loop per point.

Two approximations relative to the exact scalar path:

- the pattern-recognition fraction is sampled once at the base config's
  geometry and treated as geometry-independent (the recognizer's verdict
  is a property of the app's address stream, not of chunk boundaries);
- the buffer allocator is not exercised per point (clean-run geometry is
  assumed to fit pinned/device memory, as it does for all shipped grids).

Where neither approximation moves a point, the grid equals ``predict_run``
bit for bit: ``tests/test_analytic.py::TestPredictGrid::
test_grid_matches_scalar_pointwise`` holds every point of a grid that
moves the sampling geometry to ``==``, for every registered app, every
predictable engine and a shared-link multi-GPU fabric.

Grid point enumeration matches ``bench.sweep``: keys iterate in sorted
order with ``itertools.product`` semantics (last key fastest), and the
ranking tie-break is the sweep's ``best`` rule — ``(sim_time,
chunk_bytes, num_blocks, grid order)`` — so analytic ranking and DES
sweeping agree on plateaus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.apps.base import AppData, Application
from repro.engines.base import Engine, EngineConfig
from repro.engines.gpu_common import chunk_plan
from repro.engines.multigpu import MultiGpuBigKernelEngine
from repro.errors import ReproError
from repro.hw.elementwise import minimum
from repro.hw.gpu import BlockResources, GpuDevice
from repro.runtime.fastpath import split_units
from repro.runtime.pipeline import ChunkWork

from repro.analytic.predict import (
    predict_run,
    predict_templated,
    resolve_engine,
    sharded_total,
)

#: config fields predict_grid can sweep
GRID_FIELDS = ("chunk_bytes", "compute_threads", "num_blocks", "ring_depth")


@dataclass
class GridPrediction:
    """Predicted sim_time over every point of a sweep grid."""

    engine: str
    app: str
    #: swept config fields, in sorted (enumeration) order
    keys: Tuple[str, ...]
    #: per-point values of each swept field (flat, grid enumeration order)
    values: Dict[str, np.ndarray]
    #: per-point predicted total time
    sim_time: np.ndarray
    base_config: EngineConfig
    meta: Dict[str, object] = field(default_factory=dict)
    _order: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def n_points(self) -> int:
        return int(self.sim_time.size)

    def ranking(self) -> np.ndarray:
        """Point indices best-first under the sweep tie-break rule."""
        if self._order is None:
            zeros = np.zeros(self.sim_time.size, dtype=np.int64)
            cb = self.values.get("chunk_bytes", zeros)
            nb = self.values.get("num_blocks", zeros)
            # np.lexsort: last key is primary; stability preserves grid order
            self._order = np.lexsort((nb, cb, self.sim_time))
        return self._order

    def argbest(self) -> int:
        return int(self.ranking()[0])

    def params_at(self, index: int) -> Dict[str, int]:
        return {k: int(self.values[k][index]) for k in self.keys}

    def config_at(self, index: int) -> EngineConfig:
        return self.base_config.with_(**self.params_at(index))

    def best_params(self) -> Dict[str, int]:
        return self.params_at(self.argbest())

    def best_time(self) -> float:
        return float(self.sim_time[self.argbest()])

    def top(self, k: int, expand_ties: bool = True) -> List[int]:
        """Best ``k`` point indices; with ``expand_ties`` every point whose
        prediction exactly equals the k-th best is included too (analytic
        plateaus are bitwise-identical, so ties are meaningful)."""
        order = self.ranking()
        k = max(1, min(k, order.size))
        chosen = list(order[:k])
        if expand_ties and k < order.size:
            kth = self.sim_time[order[k - 1]]
            extra = order[k:]
            chosen.extend(extra[self.sim_time[extra] == kth])
        return [int(i) for i in chosen]


def _product_arrays(
    grid: Dict[str, Sequence[int]]
) -> Tuple[Tuple[str, ...], Dict[str, np.ndarray]]:
    """Flatten a grid to per-point value arrays in sweep enumeration order."""
    keys = tuple(sorted(grid))
    axes = [np.asarray(list(grid[k]), dtype=np.int64) for k in keys]
    if any(ax.size == 0 for ax in axes):
        raise ReproError("grid values must be non-empty lists")
    mesh = np.meshgrid(*axes, indexing="ij") if axes else []
    return keys, {k: m.ravel() for k, m in zip(keys, mesh)}


class GridChunks(NamedTuple):
    """A template(+tail) chunk schedule at every grid point: the per-point
    counterpart of :class:`~repro.runtime.fastpath.TemplatedChunks` that
    :func:`~repro.analytic.predict.predict_templated` reads. Where a
    point has no tail, ``tail`` repeats the template's costs."""

    template: ChunkWork
    tail: ChunkWork
    n_full: np.ndarray
    has_tail: np.ndarray
    passes: int

    @classmethod
    def split(cls, units: int, upc: np.ndarray, costs, passes: int) -> "GridChunks":
        tpl_units, n_tpl, tail_units, has_tail = split_units(units, upc)
        return cls(costs(tpl_units), costs(tail_units), n_tpl, has_tail, passes)


def predict_grid(
    app: Application,
    data: AppData,
    grid: Dict[str, Sequence[int]],
    base_config: Optional[EngineConfig] = None,
    engine: Union[str, Engine] = "bigkernel",
) -> GridPrediction:
    """Predict sim_time for every configuration in ``grid`` at once."""
    base = base_config if base_config is not None else EngineConfig()
    eng = resolve_engine(engine)
    unknown = set(grid) - set(GRID_FIELDS)
    if unknown:
        raise ReproError(
            f"predict_grid cannot sweep {sorted(unknown)}; "
            f"supported fields: {', '.join(GRID_FIELDS)}"
        )
    # EngineConfig's own validation, once per distinct value
    for key, vals in grid.items():
        for v in set(vals):
            base.with_(**{key: int(v)})
    keys, values = _product_arrays(grid)
    shape = values[keys[0]].shape if keys else (1,)

    def axis(name, default):
        return values.get(name, np.full(shape, default, dtype=np.int64))

    cb = axis("chunk_bytes", base.chunk_bytes)
    nb = axis("num_blocks", base.num_blocks)
    ct = axis("compute_threads", base.compute_threads)
    rd = axis("ring_depth", base.ring_depth)
    hw = base.hardware
    profile = app.access_profile(data)
    units = app.n_units(data)
    meta: Dict[str, object] = {}

    if eng.name in ("cpu_serial", "cpu_mt"):
        scalar = predict_run(app, data, base, engine=eng).sim_time
        sim = np.full(shape, scalar)
        meta["config_insensitive"] = True
    elif eng.name == "gpu_single":
        upc, _ = chunk_plan(units, cb, profile.record_bytes)
        comm, comp, _, _, _ = eng.serial_chain(hw, profile, units, upc, nb * ct)
        sim = comm + comp
    elif eng.name == "gpu_double":
        upc, _ = chunk_plan(units, cb, profile.record_bytes)
        chunks = GridChunks.split(
            units,
            upc,
            lambda u: eng.chunk_costs(hw, profile, u, nb * ct),
            profile.passes,
        )
        sim, _, _ = predict_templated(hw, chunks, eng.pipe_cfg)
        meta["note"] = "ring_depth fixed at 2 by the engine"
    else:  # bigkernel, on one GPU or sharded
        multi = isinstance(eng, MultiGpuBigKernelEngine)
        shards, workers = eng._shards(hw, units) if multi else ([(0, units, hw)], None)
        plans = [
            _bigkernel_plan(eng, app, data, base, shard_hw, su, cb, nb, ct, rd, workers)
            for _g, su, shard_hw in shards
        ]
        sim, _, _ = sharded_total(hw, [p[:2] for p in plans], multi and eng.shared_link)
        sim = sim + hw.gpu.kernel_launch_overhead
        meta.update(plans[-1][2])
        if multi:
            merge = eng._merge_time(app, data, hw, len(shards))
            sim = sim + merge
            meta.update(
                n_gpus=len(shards),
                shared_link=eng.shared_link,
                numa_aware=eng.numa_aware,
                workers_per_gpu=workers,
                merge_time=merge,
            )
    return GridPrediction(eng.name, app.name, keys, values, sim, base, meta)


def _bigkernel_plan(eng, app, data, base, hw, units, cb, nb, ct, rd, workers=None):
    """``(chunks, pipe_cfg, meta)`` of one BigKernel schedule at every point.

    The plain engine derives its CPU-worker pool from occupancy; the
    multi-GPU engine prices a shard on its own hardware (NUMA-derated
    memory bandwidth) with its fixed per-shard ``workers``.
    """
    profile = app.access_profile(data)
    reduce_volume = eng.features.reduce_volume and eng._sliceable(app, profile)
    payload_per_unit = eng._payload(profile, reduce_volume)
    # one pattern sample, at the base geometry, stands for every point
    fraction = 0.0
    if base.pattern_recognition and profile.pattern_friendly is not None:
        base_upc, _ = chunk_plan(units, base.chunk_bytes, payload_per_unit)
        fraction = eng._sample_pattern_fraction(app, data, base, base_upc)
    pattern_on = base.pattern_recognition and fraction >= 0.5
    if workers is None:
        # occupancy as the engine plans it, without the buffer allocator
        req = BlockResources(threads=2 * ct)
        active = GpuDevice(hw.gpu).active_blocks(req, nb)
        workers = minimum(active, hw.cpu.threads)
    threads = nb * ct
    upc, _ = chunk_plan(units, cb, payload_per_unit)
    chunks = GridChunks.split(
        units,
        upc,
        lambda u: eng.chunk_costs(
            hw, profile, u, threads, workers, reduce_volume, pattern_on
        ),
        profile.passes,
    )
    meta = dict(
        pattern_on=pattern_on,
        pattern_fraction=fraction,
        reduce_volume=reduce_volume,
        features=eng.features.label,
    )
    return chunks, eng.pipe_config(hw, rd), meta


def suggest_grid(
    n_points: int, base_chunk: int = 64 * 1024, chunk_step: int = 16 * 1024
) -> Dict[str, List[int]]:
    """A deterministic ≥``n_points`` sweep grid over sane geometry ranges."""
    if n_points < 1:
        raise ReproError("n_points must be positive")
    num_blocks = [1, 2, 4, 6, 8, 12, 16, 24, 32, 48, 64]
    ring_depth = [2, 3, 4, 5, 6, 7, 8, 9]
    compute_threads = [32 * i for i in range(1, 17)]
    per_chunk = len(num_blocks) * len(ring_depth) * len(compute_threads)
    n_chunks = max(1, -(-n_points // per_chunk))
    chunk_bytes = [base_chunk + i * chunk_step for i in range(n_chunks)]
    return {
        "chunk_bytes": chunk_bytes,
        "compute_threads": compute_threads,
        "num_blocks": num_blocks,
        "ring_depth": ring_depth,
    }
