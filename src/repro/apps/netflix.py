"""Netflix preference prediction (user-pair rating correlation).

An array of fixed-length rating records is mapped; the kernel reads a movie
id and the ratings of a pair of users (30% of each 80-byte record) and
accumulates correlation statistics into a GPU-resident table, from which
per-movie Pearson correlations are produced.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.apps.base import AccessProfile, AppData, Application, register
from repro.kernelc.codegen import ExecutionContext
from repro.kernelc.ir import (
    Assign,
    AtomicAdd,
    BinOp,
    Const,
    For,
    Kernel,
    Load,
    MappedRef,
    RecordSchema,
    Var,
)
from repro.units import GB

RATING = RecordSchema.packed(
    [
        ("movie", "i4"),
        ("rating_a", "f8"),
        ("rating_b", "f8"),
        ("user_a", "i4"),
        ("user_b", "i4"),
        ("timestamp", "i8"),
        ("source", "i4"),
        ("flags", "i4"),
    ],
    record_size=80,
)

#: movie id + the two ratings: 4 + 8 + 8 = 20... plus user_a: 24 bytes = 30%
READ_FIELDS = ("movie", "rating_a", "rating_b")
READ_BYTES = 4 + 8 + 8 + 4  # includes user_a (weighting key): 24 B of 80 B
N_MOVIES = 4096
#: statistics accumulated per movie: n, sa, sb, sab, sa2, sb2
STATS = 6


@register
class NetflixApp(Application):
    """Per-movie correlation of user-pair ratings."""

    name = "netflix"
    display_name = "Netflix"
    paper_data_bytes = int(6.0 * GB)
    writes_mapped = False

    # ------------------------------------------------------------- data
    def generate(self, n_bytes: Optional[int] = None, seed: int = 0) -> AppData:
        n_bytes = n_bytes or self.default_bytes()
        n = max(1, n_bytes // RATING.record_size)
        rng = np.random.default_rng(seed)
        arr = np.zeros(n, dtype=RATING.numpy_dtype())
        arr["movie"] = rng.integers(0, N_MOVIES, n)
        base_quality = rng.uniform(1, 5, N_MOVIES)[arr["movie"]]
        arr["rating_a"] = np.clip(base_quality + rng.normal(0, 1, n), 1, 5)
        arr["rating_b"] = np.clip(base_quality + rng.normal(0, 1, n), 1, 5)
        arr["user_a"] = rng.integers(0, 1 << 20, n)
        arr["user_b"] = rng.integers(0, 1 << 20, n)
        arr["timestamp"] = rng.integers(0, 1 << 40, n)
        return AppData(
            app=self.name,
            mapped={"ratings": arr},
            schemas={"ratings": RATING},
            resident={"table": np.zeros(N_MOVIES * STATS, dtype=np.float64)},
            params={"numR": n},
            primary="ratings",
        )

    # ----------------------------------------------------- vectorized kernel
    def make_state(self, data: AppData) -> Any:
        return {"table": np.zeros(N_MOVIES * STATS, dtype=np.float64)}

    def process_chunk(self, data: AppData, state: Any, lo: int, hi: int) -> None:
        r = data.mapped["ratings"]
        a = r["rating_a"][lo:hi]
        b = r["rating_b"][lo:hi]
        # one row of the six statistics per record, added to its movie's
        # row in record order: every cell accumulates as six 1-D adds would
        values = np.empty((a.size, STATS))
        values[:, 0] = 1.0
        values[:, 1] = a
        values[:, 2] = b
        np.multiply(a, b, out=values[:, 3])
        np.multiply(a, a, out=values[:, 4])
        np.multiply(b, b, out=values[:, 5])
        np.add.at(state["table"].reshape(N_MOVIES, STATS), r["movie"][lo:hi], values)

    def finalize(self, data: AppData, state: Any) -> np.ndarray:
        t = state["table"].reshape(N_MOVIES, STATS)
        n, sa, sb, sab, sa2, sb2 = (t[:, i] for i in range(6))
        with np.errstate(invalid="ignore", divide="ignore"):
            cov = sab - sa * sb / np.maximum(n, 1)
            var_a = sa2 - sa * sa / np.maximum(n, 1)
            var_b = sb2 - sb * sb / np.maximum(n, 1)
            corr = np.where(
                (n > 1) & (var_a > 0) & (var_b > 0),
                cov / np.sqrt(np.maximum(var_a * var_b, 1e-30)),
                0.0,
            )
        return corr

    def outputs_equal(self, a: Any, b: Any) -> bool:
        return bool(np.allclose(a, b, rtol=0, atol=1e-9))

    # ---------------------------------------------------- characterization
    def access_profile(self, data: AppData) -> AccessProfile:
        return AccessProfile(
            record_bytes=RATING.record_size,
            read_bytes_per_record=READ_BYTES,
            write_bytes_per_record=0.0,
            reads_per_record=3,  # the 24B span read as three 8B words
            writes_per_record=0.0,
            elem_bytes=8,
            gpu_ops_per_record=60.0,
            # six read-modify-writes on a 192 KiB table miss L1/L2 on the
            # CPU side; scalar cost per record is dominated by them
            cpu_ops_per_record=360.0,
            resident_bytes_per_record=16.0,  # table largely L2-resident GPU-side
            pattern_friendly=True,
            sliceable=True,
            gather_granularity_bytes=28.0,  # movie..user_a span contiguously
            addresses_per_record=1.0,  # movie..user_a is one contiguous span
            gpu_divergence=10.0,  # fp64 atomics contending on hot movie rows
        )

    def chunk_read_offsets(self, data: AppData, lo: int, hi: int) -> np.ndarray:
        base = np.arange(lo, hi, dtype=np.int64) * RATING.record_size
        # the contiguous movie..user_a span (24 B) read as three 8B words
        field_offs = np.array([0, 8, 16], dtype=np.int64)
        return (base[:, None] + field_offs[None, :]).reshape(-1)

    # ------------------------------------------------------- compiler path
    def kernel(self) -> Kernel:
        ref = lambda f: MappedRef("ratings", Var("i"), f)
        slot = lambda k: BinOp("+", BinOp("*", Var("m"), Const(STATS)), Const(k))
        body = (
            For(
                "i",
                Var("start"),
                Var("end"),
                (
                    Assign("m", Load(ref("movie"))),
                    Assign("a", Load(ref("rating_a"))),
                    Assign("b", Load(ref("rating_b"))),
                    Assign("ua", Load(ref("user_a"))),
                    AtomicAdd("table", slot(0), Const(1.0)),
                    AtomicAdd("table", slot(1), Var("a")),
                    AtomicAdd("table", slot(2), Var("b")),
                    AtomicAdd("table", slot(3), BinOp("*", Var("a"), Var("b"))),
                    AtomicAdd("table", slot(4), BinOp("*", Var("a"), Var("a"))),
                    AtomicAdd("table", slot(5), BinOp("*", Var("b"), Var("b"))),
                ),
            ),
        )
        return Kernel(
            name="netflixKernel",
            body=body,
            mapped={"ratings": RATING},
            resident=("table",),
        )

    def make_ir_context(self, data: AppData) -> ExecutionContext:
        return ExecutionContext(
            mapped={"ratings": data.mapped["ratings"]},
            resident={"table": np.zeros(N_MOVIES * STATS, dtype=np.float64)},
            params=dict(data.params),
        )

    def ir_output(self, data: AppData, ctx: ExecutionContext) -> np.ndarray:
        return self.finalize(data, {"table": ctx.resident["table"]})
