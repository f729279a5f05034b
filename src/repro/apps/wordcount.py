"""Word Count over a large mapped document.

Variable-length records (words), 100% of mapped data read, nothing
modified. The kernel streams bytes, builds a rolling hash per word, and
accumulates into a resident count table (the paper notes the centralized
hash table's synchronization burden makes this computation-dominant).

The address stream is a perfect stride-1 byte walk, so pattern recognition
replaces 8-byte-per-1-byte address traffic with one descriptor — the
largest Table II win (66%).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.apps.base import AccessProfile, AppData, Application, register
from repro.apps.datagen import make_text
from repro.kernelc.codegen import ExecutionContext
from repro.kernelc.ir import (
    Assign,
    AtomicAdd,
    BinOp,
    Const,
    For,
    If,
    Kernel,
    Load,
    MappedRef,
    RecordSchema,
    Var,
)
from repro.units import GB

BYTES = RecordSchema.bytes_schema()

#: hash-table size (resident)
TABLE_SIZE = 1 << 16
#: rolling-hash modulus (uint32 wraparound)
HASH_MOD = 1 << 32
SEP = 32  # space


#: the prefix hash's power tables: ``r**k == lo[k & _POW_MASK] *
#: hi[k >> _POW_BITS]`` (mod 2^32) for any exponent ``k < 2**32``, so two
#: fixed 2^16-entry tables serve every range length
_POW_BITS = 16
_POW_MASK = (1 << _POW_BITS) - 1


def _power_tables(r: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) uint32 tables of ``r**k mod 2^32`` split at ``_POW_BITS``."""

    def geometric(ratio: int) -> np.ndarray:
        table = np.empty(1 << _POW_BITS, dtype=np.uint32)
        table[0] = 1
        ratios = np.full(table.size - 1, ratio, dtype=np.uint32)
        np.cumprod(ratios, dtype=np.uint32, out=table[1:])
        return table

    return geometric(r), geometric(pow(r, 1 << _POW_BITS, HASH_MOD))


#: 31 is odd, hence a unit mod 2^32: its inverse exists
_POW = _power_tables(31)
_INV_POW = _power_tables(pow(31, -1, HASH_MOD))


def _word_hashes(text: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Rolling hash of every word in [lo, hi), in word order.

    The hash is ``h = (h * 31 + c) mod 2^32`` over a word's bytes, i.e.
    ``h(w[s, e)) = sum_i c_i * 31**(e-1-i)``. With the prefix sums
    ``S[k] = sum_{i<k} c_i * 31**-i`` (wrapping uint32) every word is
    ``(S[e] - S[s]) * 31**(e-1)``: one O(n) pass, and exact because both
    sides are the same residue mod 2^32. A word cut by ``lo`` or ``hi``
    hashes its in-range bytes.
    """
    seg = text[lo:hi]
    n = seg.size
    # separators padded on both sides: every flip is a word start or end
    is_sep = np.ones(n + 2, dtype=bool)
    np.equal(seg, SEP, out=is_sep[1:-1])
    edges = np.flatnonzero(is_sep[1:] != is_sep[:-1])
    starts, ends = edges[0::2], edges[1::2]
    prefix = np.zeros(n + 1, dtype=np.uint32)
    terms = prefix[1:]
    inv_lo, inv_hi = _INV_POW
    for block, b0 in enumerate(range(0, n, 1 << _POW_BITS)):
        b1 = min(b0 + (1 << _POW_BITS), n)
        np.multiply(seg[b0:b1], inv_lo[: b1 - b0] * inv_hi[block], out=terms[b0:b1])
    np.cumsum(terms, dtype=np.uint32, out=terms)
    last = ends - 1
    scale = _POW[0][last & _POW_MASK] * _POW[1][last >> _POW_BITS]
    return (prefix[ends] - prefix[starts]) * scale


@register
class WordCountApp(Application):
    """Hash-table word counting over streamed text."""

    name = "wordcount"
    display_name = "Word Count"
    paper_data_bytes = int(4.5 * GB)
    writes_mapped = False
    #: the running hash/length (h, n) are loop-carried across records, so
    #: the vectorized backend rejects this kernel by design
    compiled_expected = False

    # ------------------------------------------------------------- data
    def generate(self, n_bytes: Optional[int] = None, seed: int = 0) -> AppData:
        n_bytes = n_bytes or self.default_bytes()
        rng = np.random.default_rng(seed)
        text, words = make_text(rng, n_bytes, sep=SEP)
        return AppData(
            app=self.name,
            mapped={"text": text.view(BYTES.numpy_dtype())},
            schemas={"text": BYTES},
            resident={"counts": np.zeros(TABLE_SIZE, dtype=np.int64)},
            params={"n": text.size},
            primary="text",
            meta={"avg_record": text.size / words, "n_words": words},
        )

    # ----------------------------------------------------- vectorized kernel
    def make_state(self, data: AppData) -> Any:
        return {"counts": np.zeros(TABLE_SIZE, dtype=np.int64)}

    def process_chunk(self, data: AppData, state: Any, lo: int, hi: int) -> None:
        text = data.mapped["text"]["byte"]
        h = _word_hashes(text, lo, hi)
        np.add.at(state["counts"], (h % TABLE_SIZE).astype(np.int64), 1)

    def finalize(self, data: AppData, state: Any) -> np.ndarray:
        return state["counts"]

    def outputs_equal(self, a: Any, b: Any) -> bool:
        return bool(np.array_equal(a, b))

    # ------------------------------------------------------------ chunking
    def chunk_bounds(self, data: AppData, chunk_units: int) -> list[tuple[int, int]]:
        """Byte chunks aligned to separators so words never straddle."""
        return self._separator_bounds(data, "text", SEP, chunk_units)

    # ---------------------------------------------------- characterization
    def access_profile(self, data: AppData) -> AccessProfile:
        # NOTE: processing units are BYTES for this app, so the profile is
        # per byte (read fraction 100%, Table I); avg word length only
        # affects the amortized per-word table-update cost.
        avg = float(data.meta.get("avg_record", 8.0))
        return AccessProfile(
            record_bytes=1.0,
            read_bytes_per_record=1.0,  # every byte is read
            write_bytes_per_record=0.0,
            reads_per_record=1.0,
            writes_per_record=0.0,
            elem_bytes=1,
            # per byte: compare + hash multiply-add; per word: a centralized
            # hash-table update with synchronization (the paper's
            # dominant-computation cause), amortized over the word's bytes
            # per-byte branching diverges within warps and the table
            # updates serialize on atomics: the op count is
            # divergence-adjusted (the paper's dominant-computation cause)
            gpu_ops_per_record=24.0 + 120.0 / avg,
            cpu_ops_per_record=32.0 + 64.0 / avg,
            resident_bytes_per_record=8.0 / avg,
            pattern_friendly=True,  # stride-1 bytes
            sliceable=True,
            variable_length=True,
            gather_granularity_bytes=4096.0,  # stride-1 runs bulk-copy
            gpu_divergence=24.0,  # per-byte branches + table atomics
        )

    def chunk_read_offsets(self, data: AppData, lo: int, hi: int) -> np.ndarray:
        return np.arange(lo, hi, dtype=np.int64)

    # ------------------------------------------------------- compiler path
    def kernel(self) -> Kernel:
        c = Var("c")
        body = (
            Assign("h", Const(0)),
            Assign("n", Const(0)),
            For(
                "i",
                Var("start"),
                Var("end"),
                (
                    Assign("c", Load(MappedRef("text", Var("i"), "byte"))),
                    If(
                        BinOp("==", c, Const(SEP)),
                        (
                            If(
                                BinOp(">", Var("n"), Const(0)),
                                (
                                    AtomicAdd(
                                        "counts",
                                        BinOp("%", Var("h"), Const(TABLE_SIZE)),
                                        Const(1),
                                    ),
                                ),
                            ),
                            Assign("h", Const(0)),
                            Assign("n", Const(0)),
                        ),
                        (
                            Assign(
                                "h",
                                BinOp(
                                    "%",
                                    BinOp(
                                        "+", BinOp("*", Var("h"), Const(31)), c
                                    ),
                                    Const(HASH_MOD),
                                ),
                            ),
                            Assign("n", BinOp("+", Var("n"), Const(1))),
                        ),
                    ),
                ),
            ),
        )
        return Kernel(
            name="wordCountKernel",
            body=body,
            mapped={"text": BYTES},
            resident=("counts",),
        )

    def make_ir_context(self, data: AppData) -> ExecutionContext:
        return ExecutionContext(
            mapped={"text": data.mapped["text"]},
            resident={"counts": np.zeros(TABLE_SIZE, dtype=np.int64)},
            params=dict(data.params),
        )

    def ir_output(self, data: AppData, ctx: ExecutionContext) -> np.ndarray:
        return ctx.resident["counts"]
