"""K-means assignment (the paper's running example).

Partitions ``n`` particles into ``k`` clusters by nearest mean. Records are
fixed-length (48 B: x/y/z doubles + a cluster id + padding); the kernel
reads the three coordinates (50% of each record) and writes the cluster id
— the only benchmark that *modifies* mapped data, exercising the two
write-back pipeline stages.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.apps.base import AccessProfile, AppData, Application, register
from repro.kernelc.codegen import ExecutionContext
from repro.kernelc.ir import (
    Assign,
    Call,
    For,
    Kernel,
    Load,
    MappedRef,
    RecordSchema,
    Store,
    Var,
)
from repro.units import GB

PARTICLE = RecordSchema.packed(
    [("x", "f8"), ("y", "f8"), ("z", "f8"), ("cid", "i4"), ("weight", "f4"),
     ("pad0", "f8"), ("pad1", "f8")],
    record_size=48,
)

#: coordinates read per record
READ_BYTES = 24
#: cluster id written per record
WRITE_BYTES = 4
#: particles per distance block: two (k, block) float64 matrices, 1 MiB
#: each at the default k = 32, stay in cache
_BLOCK = 4096


@register
class KMeansApp(Application):
    """Nearest-cluster assignment over streamed particle records."""

    name = "kmeans"
    display_name = "K-means"
    paper_data_bytes = int(6.0 * GB)
    writes_mapped = True

    def __init__(self, n_clusters: int = 32):
        self.n_clusters = n_clusters

    # ------------------------------------------------------------- data
    def generate(self, n_bytes: Optional[int] = None, seed: int = 0) -> AppData:
        n_bytes = n_bytes or self.default_bytes()
        n = max(1, n_bytes // PARTICLE.record_size)
        rng = np.random.default_rng(seed)
        particles = np.zeros(n, dtype=PARTICLE.numpy_dtype())
        centers = rng.uniform(-100, 100, (self.n_clusters, 3))
        owner = rng.integers(0, self.n_clusters, n)
        for i, f in enumerate("xyz"):
            particles[f] = centers[owner, i] + rng.normal(0, 5.0, n)
        particles["weight"] = rng.uniform(0, 1, n).astype(np.float32)
        clusters = centers + rng.normal(0, 2.0, centers.shape)
        return AppData(
            app=self.name,
            mapped={"particles": particles},
            schemas={"particles": PARTICLE},
            resident={"clusters": clusters},
            params={"numP": n, "numCl": self.n_clusters},
            primary="particles",
        )

    # ----------------------------------------------------- vectorized kernel
    def make_state(self, data: AppData) -> Any:
        return {"assigned": 0}

    def process_chunk(self, data: AppData, state: Any, lo: int, hi: int) -> None:
        p = data.mapped["particles"]
        c = data.resident["clusters"]  # (k, 3)
        # squared distances as (k, block) matrices built in place, one
        # cache-sized block of particles at a time: each entry is
        # ((cx-x)^2 + (cy-y)^2) + (cz-z)^2, bit-equal to the (x-cx)^2 form,
        # and argmin keeps the lowest cluster id on a tie
        for b0 in range(lo, hi, _BLOCK):
            b1 = min(b0 + _BLOCK, hi)
            d2 = np.subtract.outer(c[:, 0], p["x"][b0:b1])
            d2 *= d2
            t = np.subtract.outer(c[:, 1], p["y"][b0:b1])
            t *= t
            d2 += t
            np.subtract.outer(c[:, 2], p["z"][b0:b1], out=t)
            t *= t
            d2 += t
            p["cid"][b0:b1] = np.argmin(d2, axis=0)
        state["assigned"] += hi - lo

    def finalize(self, data: AppData, state: Any) -> np.ndarray:
        return data.mapped["particles"]["cid"].copy()

    def merge_states(self, data: AppData, states: list) -> Any:
        # per-shard tallies are always additive — the default merge would
        # keep a single count when balanced shards happen to agree
        return {"assigned": sum(int(s["assigned"]) for s in states)}

    # ---------------------------------------------------- characterization
    def access_profile(self, data: AppData) -> AccessProfile:
        k = self.n_clusters
        return AccessProfile(
            record_bytes=PARTICLE.record_size,
            read_bytes_per_record=READ_BYTES,
            write_bytes_per_record=WRITE_BYTES,
            reads_per_record=3,
            writes_per_record=1,
            elem_bytes=8,
            # 3 subs + 3 muls + 2 adds + compare per cluster, plus argmin
            gpu_ops_per_record=9.0 * k + k,
            cpu_ops_per_record=22.0 * k,
            # the cluster array (k x 24 B) is cached on chip; DRAM traffic
            # to resident data is negligible
            resident_bytes_per_record=4.0,
            pattern_friendly=True,  # strides (8, 8, 32)
            sliceable=True,
            gather_granularity_bytes=24.0,  # x,y,z are contiguous
            addresses_per_record=3.0,  # one per double read
            gpu_divergence=16.0,  # fp64 at 1/24 rate + argmin-loop divergence
        )

    def chunk_read_offsets(self, data: AppData, lo: int, hi: int) -> np.ndarray:
        base = np.arange(lo, hi, dtype=np.int64) * PARTICLE.record_size
        offs = base[:, None] + np.array([0, 8, 16], dtype=np.int64)[None, :]
        return offs.reshape(-1)

    def chunk_write_offsets(self, data: AppData, lo: int, hi: int) -> np.ndarray:
        return np.arange(lo, hi, dtype=np.int64) * PARTICLE.record_size + 24

    # ------------------------------------------------------- compiler path
    def kernel(self) -> Kernel:
        ref = lambda f: MappedRef("particles", Var("i"), f)
        body = (
            For(
                "i",
                Var("start"),
                Var("end"),
                (
                    Assign("x", Load(ref("x"))),
                    Assign("y", Load(ref("y"))),
                    Assign("z", Load(ref("z"))),
                    Assign(
                        "cid",
                        Call("findClosestCluster", (Var("x"), Var("y"), Var("z"))),
                    ),
                    Store(ref("cid"), Var("cid")),
                ),
            ),
        )
        return Kernel(
            name="clusterKernel",
            body=body,
            mapped={"particles": PARTICLE},
            resident=("clusters",),
            params=("numP",),
            device_functions=("findClosestCluster",),
        )

    def make_ir_context(self, data: AppData) -> ExecutionContext:
        def find_closest(ctx, x, y, z):
            c = ctx.resident["clusters"]
            d = (c[:, 0] - x) ** 2 + (c[:, 1] - y) ** 2 + (c[:, 2] - z) ** 2
            return np.int32(np.argmin(d))

        def find_closest_batch(ctx, x, y, z):
            # batch form used by the compiled backend: one distance matrix
            # per lane-block, argmin along the cluster axis (ties resolve to
            # the lowest id, same as the scalar np.argmin)
            c = ctx.resident["clusters"]
            d = (
                (c[None, :, 0] - x[:, None]) ** 2
                + (c[None, :, 1] - y[:, None]) ** 2
                + (c[None, :, 2] - z[:, None]) ** 2
            )
            return np.argmin(d, axis=1)

        find_closest.vectorized = find_closest_batch

        return ExecutionContext(
            mapped={"particles": data.mapped["particles"]},
            resident={"clusters": data.resident["clusters"]},
            params=dict(data.params),
            device_fns={"findClosestCluster": find_closest},
        )

    def ir_output(self, data: AppData, ctx: ExecutionContext) -> np.ndarray:
        return ctx.mapped["particles"]["cid"].copy()
