"""DNA assembly preprocessing (Meraculous-style k-mer counting).

Fixed-length fragment records (128 B: a 46-base read + quality/metadata);
the kernel hashes a k-base prefix of each fragment into a resident table to
count identical fragments and flag noisy (unique) ones, which a later
extension phase uses to merge overlapping fragments. 36% of each record is
read (the bases).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.apps.base import (
    AccessProfile,
    AppData,
    Application,
    field_run_dtype,
    register,
)
from repro.apps.datagen import blocks, dna_bases
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

FRAG_LEN = 46
KMER = 16
TABLE_SIZE = 1 << 16
HASH_MOD = 1 << 32

_fields = [(f"b{j}", "u1") for j in range(FRAG_LEN)]
_fields += [("read_id", "i8"), ("quality", "f4"), ("lane", "i4")]
FRAGMENT = RecordSchema.packed(_fields, record_size=128)

READ_BYTES = FRAG_LEN  # 46 of 128 bytes ~ 36%

#: the k-mer prefix b0..b15 as one (KMER,) uint8 field of each record
_KMER_VIEW = field_run_dtype(FRAGMENT, "b0", KMER)
#: the whole read b0..b45, the same way
_READ_VIEW = field_run_dtype(FRAGMENT, "b0", FRAG_LEN)


def _kmer_hashes(bases: np.ndarray) -> np.ndarray:
    """Vectorized polynomial hash over the first KMER bases. (n, >=KMER)."""
    h = np.zeros(bases.shape[0], dtype=np.uint32)
    for j in range(KMER):
        h = h * np.uint32(31) + bases[:, j].astype(np.uint32)
    return h


@register
class DnaAssemblyApp(Application):
    """k-mer prefix counting + noisy-fragment detection."""

    name = "dna"
    display_name = "DNA Assembly"
    paper_data_bytes = int(4.5 * GB)
    writes_mapped = False

    def __init__(self, genome_fraction: float = 0.01):
        #: fragments are drawn from a small underlying genome so that many
        #: k-mer prefixes repeat (as real shotgun reads do)
        self.genome_fraction = genome_fraction

    # ------------------------------------------------------------- data
    def generate(self, n_bytes: Optional[int] = None, seed: int = 0) -> AppData:
        n_bytes = n_bytes or self.default_bytes()
        n = max(1, n_bytes // FRAGMENT.record_size)
        rng = np.random.default_rng(seed)
        genome_len = max(FRAG_LEN + 1, int(n * self.genome_fraction) + FRAG_LEN)
        genome = dna_bases(rng, genome_len)
        # row i is the read that starts at genome[i]
        windows = np.lib.stride_tricks.sliding_window_view(genome, FRAG_LEN)
        arr = np.zeros(n, dtype=FRAGMENT.numpy_dtype())
        reads = arr.view(_READ_VIEW)["run"]
        # all the starts are drawn before all the qualities
        for lo, hi in blocks(n):
            reads[lo:hi] = windows[rng.integers(0, genome_len - FRAG_LEN, hi - lo)]
        for lo, hi in blocks(n):
            arr["read_id"][lo:hi] = np.arange(lo, hi)
            arr["quality"][lo:hi] = rng.uniform(0.5, 1.0, hi - lo)
        return AppData(
            app=self.name,
            mapped={"fragments": arr},
            schemas={"fragments": FRAGMENT},
            resident={"table": np.zeros(TABLE_SIZE, dtype=np.int64)},
            params={"numF": n},
            primary="fragments",
        )

    # ----------------------------------------------------- vectorized kernel
    def make_state(self, data: AppData) -> Any:
        return {"table": np.zeros(TABLE_SIZE, dtype=np.int64)}

    def process_chunk(self, data: AppData, state: Any, lo: int, hi: int) -> None:
        bases = data.mapped["fragments"][lo:hi].view(_KMER_VIEW)["run"]
        h = _kmer_hashes(bases)
        np.add.at(state["table"], (h % TABLE_SIZE).astype(np.int64), 1)

    def finalize(self, data: AppData, state: Any) -> dict:
        """Count table + noisy count + a bounded extension summary.

        The extension phase walks the (CPU-side) table looking for k-mers
        whose counts support merging — we summarize it as the number of
        extendable buckets, keeping the benchmark's compute on the GPU
        kernel where the paper has it.
        """
        table = state["table"]
        noisy = int(np.count_nonzero(table == 1))
        extendable = int(np.count_nonzero(table >= 2))
        return {"table": table, "noisy": noisy, "extendable": extendable}

    def outputs_equal(self, a: Any, b: Any) -> bool:
        return (
            bool(np.array_equal(a["table"], b["table"]))
            and a["noisy"] == b["noisy"]
            and a["extendable"] == b["extendable"]
        )

    # ---------------------------------------------------- characterization
    def access_profile(self, data: AppData) -> AccessProfile:
        return AccessProfile(
            record_bytes=FRAGMENT.record_size,
            read_bytes_per_record=READ_BYTES,
            write_bytes_per_record=0.0,
            reads_per_record=FRAG_LEN,
            writes_per_record=0.0,
            elem_bytes=1,
            # byte-wise hashing diverges within warps; atomic table updates
            # serialize: divergence-adjusted op count
            gpu_ops_per_record=16.0 * KMER + 4.0 * FRAG_LEN,
            cpu_ops_per_record=14.0 * KMER + 7.0 * FRAG_LEN,
            resident_bytes_per_record=8.0,  # table largely cache-resident
            pattern_friendly=True,  # byte strides inside fixed records
            sliceable=True,
            gather_granularity_bytes=float(FRAG_LEN),  # one run per fragment
            addresses_per_record=2.0,  # the fragment is read as two wide vectors
            gpu_divergence=8.0,  # hash-probe divergence + table atomics
        )

    def chunk_read_offsets(self, data: AppData, lo: int, hi: int) -> np.ndarray:
        base = np.arange(lo, hi, dtype=np.int64) * FRAGMENT.record_size
        offs = np.arange(FRAG_LEN, dtype=np.int64)  # b0..b45 at offsets 0..45
        return (base[:, None] + offs[None, :]).reshape(-1)

    # ------------------------------------------------------- compiler path
    def kernel(self) -> Kernel:
        stmts: list = [Assign("h", Const(0))]
        for j in range(KMER):
            stmts.append(Assign("c", Load(MappedRef("fragments", Var("i"), f"b{j}"))))
            stmts.append(
                Assign(
                    "h",
                    BinOp(
                        "%",
                        BinOp("+", BinOp("*", Var("h"), Const(31)), Var("c")),
                        Const(HASH_MOD),
                    ),
                )
            )
        # the remaining bases are read for the extension phase
        for j in range(KMER, FRAG_LEN):
            stmts.append(Assign("c", Load(MappedRef("fragments", Var("i"), f"b{j}"))))
        stmts.append(
            AtomicAdd("table", BinOp("%", Var("h"), Const(TABLE_SIZE)), Const(1))
        )
        body = (For("i", Var("start"), Var("end"), tuple(stmts)),)
        return Kernel(
            name="dnaKernel",
            body=body,
            mapped={"fragments": FRAGMENT},
            resident=("table",),
        )

    def make_ir_context(self, data: AppData) -> ExecutionContext:
        return ExecutionContext(
            mapped={"fragments": data.mapped["fragments"]},
            resident={"table": np.zeros(TABLE_SIZE, dtype=np.int64)},
            params=dict(data.params),
        )

    def ir_output(self, data: AppData, ctx: ExecutionContext) -> dict:
        return self.finalize(data, {"table": ctx.resident["table"]})
