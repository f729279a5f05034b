"""MasterCard Affinity: merchants co-visited by a target merchant's
customers.

Purchase transactions are variable-length delimiter-separated text records.
Two passes over the mapped data: pass 1 collects the customers of target
merchant X; pass 2 counts, per other merchant, visits by those customers.

Two variants (paper Section V):

* **Plain** — no index: the kernel must scan every byte to find record
  boundaries, so all data is transferred (100% read) and the only BigKernel
  benefits are pipelining + coalescing. The per-thread byte walk is a
  perfect stride-1 pattern, so pattern recognition still removes the
  address traffic (Table II: 57%).
* **Indexed** — a record-offset index lets the kernel read just the
  fixed-width card and merchant key fields (~25% of the data), unlocking
  the transfer-volume reduction; the index-driven addresses are irregular,
  so pattern recognition does not apply (Table II: NA).

Record format (synthetic): ``CCCCCCCC|MMMMMMMM|<variable amount/meta>;``
with zero-padded 8-digit card and merchant keys, matching real layouts
where key fields are fixed-width inside variable records.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Optional

import numpy as np

from repro.apps.base import AccessProfile, AppData, Application, register
from repro.apps.datagen import blocks, zipf_indices
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
    Param,
    RecordSchema,
    ResidentLoad,
    ResidentStore,
    Var,
)
from repro.units import GB

BYTES = RecordSchema.bytes_schema()

N_CARDS = 1 << 14
N_MERCHANTS = 1 << 10
KEY_WIDTH = 8
SEP = ord(";")
BAR = ord("|")


#: the ``CCCCCCCC|MMMMMMMM|`` key fields that open every record
HEADER = 2 * (KEY_WIDTH + 1)


@lru_cache(maxsize=1)
def _key_rows() -> np.ndarray:
    """``b"%08d|" % key`` for every card and merchant key, one read-only
    ``uint8`` row each, built on first use.

    Built one digit column at a time from ``int32`` keys, so its
    temporaries stay small.
    """
    n = max(N_CARDS, N_MERCHANTS)
    rows = np.full((n, KEY_WIDTH + 1), BAR, dtype=np.uint8)
    keys = np.arange(n, dtype=np.int32)
    for column in range(KEY_WIDTH - 1, -1, -1):
        rows[:, column] = keys % 10 + ord("0")
        keys //= 10
    rows.setflags(write=False)
    return rows


def _render_transactions(
    rng: np.random.Generator, cards: np.ndarray, merchants: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Render parsed transactions to delimiter-separated text.

    Record ``i`` is ``b"%08d|%08d|%s;" % (card, merchant, b"9" * tail)``
    with a tail of 28-61 bytes. The record offsets are drawn and summed
    block by block, then the text is one buffer of ``9``s. Each block of
    records takes its header rows from :func:`_key_rows` in one gather and
    writes them in one scatter, then writes its ``;``s. Returns (text
    bytes, record start offsets).
    """
    n = cards.size
    starts = np.empty(n, dtype=np.int64)
    end = 0
    for lo, hi in blocks(n):
        lens = rng.integers(28, 62, hi - lo) + (HEADER + 1)
        ends = end + np.cumsum(lens)
        starts[lo:hi] = ends - lens
        end = int(ends[-1])
    text = np.full(end, ord("9"), dtype=np.uint8)
    headers = np.lib.stride_tricks.sliding_window_view(text, HEADER, writeable=True)
    key_rows = _key_rows()
    for lo, hi in blocks(n):
        keys = np.stack((cards[lo:hi], merchants[lo:hi]), axis=1)
        headers[starts[lo:hi]] = np.take(key_rows, keys, axis=0).reshape(-1, HEADER)
        # each record but the last ends just before the next one starts
        text[starts[lo + 1 : hi + 1] - 1] = SEP
    text[-1] = SEP
    return text, starts


def _generate_common(app_name: str, n_bytes: int, seed: int) -> AppData:
    rng = np.random.default_rng(seed)
    avg_record = KEY_WIDTH * 2 + 2 + 45  # keys + separators + avg tail
    n = max(4, int(n_bytes / avg_record))
    cards = rng.integers(0, N_CARDS, n)
    merchants = zipf_indices(rng, N_MERCHANTS, n, 1.1)
    target = int(merchants[0])  # guaranteed to occur
    text, starts = _render_transactions(rng, cards, merchants)
    return AppData(
        app=app_name,
        mapped={"transactions": text.view(BYTES.numpy_dtype())},
        schemas={"transactions": BYTES},
        resident={
            "customers": np.zeros(N_CARDS, dtype=np.int64),
            "counts": np.zeros(N_MERCHANTS, dtype=np.int64),
            "record_index": starts,
        },
        params={"target": target, "numT": n, "pass_idx": 0},
        primary="transactions",
        meta={
            "cards": cards,
            "merchants": merchants,
            "record_starts": starts,
            "avg_record": text.size / n,
        },
    )


class _MastercardBase(Application):
    """Shared two-pass functional kernel over parsed transaction views."""

    writes_mapped = False
    n_passes = 2

    def make_state(self, data: AppData) -> Any:
        return {
            "customers": np.zeros(N_CARDS, dtype=bool),
            "counts": np.zeros(N_MERCHANTS, dtype=np.int64),
            "pass": 0,
        }

    def start_pass(self, data: AppData, state: Any, pass_idx: int) -> None:
        state["pass"] = pass_idx

    def _record_range(self, data: AppData, lo: int, hi: int) -> tuple[int, int]:
        """Map a unit range to a record range (identity for record units)."""
        return lo, hi

    def process_chunk(self, data: AppData, state: Any, lo: int, hi: int) -> None:
        rlo, rhi = self._record_range(data, lo, hi)
        cards = data.meta["cards"][rlo:rhi]
        merchants = data.meta["merchants"][rlo:rhi]
        target = data.params["target"]
        if state["pass"] == 0:
            state["customers"][cards[merchants == target]] = True
        else:
            mask = state["customers"][cards] & (merchants != target)
            np.add.at(state["counts"], merchants[mask], 1)

    def finalize(self, data: AppData, state: Any) -> np.ndarray:
        return state["counts"]

    def outputs_equal(self, a: Any, b: Any) -> bool:
        return bool(np.array_equal(a, b))


@register
class MastercardAffinityApp(_MastercardBase):
    """Plain variant: byte-scanning over variable-length records."""

    name = "mastercard"
    display_name = "MasterCard Affinity"
    paper_data_bytes = int(6.4 * GB)
    #: the byte-scanner's parser state (card/merch/fld) is loop-carried
    #: across records, so the vectorized backend rejects it by design
    compiled_expected = False

    def generate(self, n_bytes: Optional[int] = None, seed: int = 0) -> AppData:
        return _generate_common(self.name, n_bytes or self.default_bytes(), seed)

    def chunk_bounds(self, data: AppData, chunk_units: int) -> list[tuple[int, int]]:
        """Byte chunks aligned to record separators."""
        return self._separator_bounds(data, "transactions", SEP, chunk_units)

    def _record_range(self, data: AppData, lo: int, hi: int) -> tuple[int, int]:
        starts = data.meta["record_starts"]
        rlo = int(np.searchsorted(starts, lo, side="left"))
        rhi = int(np.searchsorted(starts, hi, side="left"))
        return rlo, rhi

    def access_profile(self, data: AppData) -> AccessProfile:
        # NOTE: processing units are BYTES (the kernel must scan everything
        # to find the delimiters), so the profile is per byte.
        avg = float(data.meta["avg_record"])
        return AccessProfile(
            record_bytes=1.0,
            read_bytes_per_record=1.0,  # must scan everything
            write_bytes_per_record=0.0,
            reads_per_record=1.0,
            writes_per_record=0.0,
            elem_bytes=1,
            # per-byte parsing diverges within warps (delimiter branches):
            # divergence-adjusted op count
            gpu_ops_per_record=40.0 + 40.0 / avg,
            cpu_ops_per_record=20.0 + 40.0 / avg,
            resident_bytes_per_record=16.0 / avg,
            pattern_friendly=True,  # stride-1 byte walk
            sliceable=True,
            variable_length=True,
            passes=2,
            gather_granularity_bytes=4096.0,  # stride-1 runs bulk-copy
            gpu_divergence=24.0,  # per-byte delimiter branches
        )

    def chunk_read_offsets(self, data: AppData, lo: int, hi: int) -> np.ndarray:
        return np.arange(lo, hi, dtype=np.int64)

    # ------------------------------------------------------- compiler path
    def kernel(self) -> Kernel:
        """Byte-scanning two-pass parser; digits accumulate into keys."""
        digit = lambda: BinOp("-", Var("c"), Const(ord("0")))
        body = (
            Assign("card", Const(0)),
            Assign("merch", Const(0)),
            Assign("fld", Const(0)),
            For(
                "i",
                Var("start"),
                Var("end"),
                (
                    Assign("c", Load(MappedRef("transactions", Var("i"), "byte"))),
                    If(
                        BinOp("==", Var("c"), Const(BAR)),
                        (Assign("fld", BinOp("+", Var("fld"), Const(1))),),
                        (
                            If(
                                BinOp("==", Var("c"), Const(SEP)),
                                (
                                    If(
                                        BinOp("==", Param("pass_idx"), Const(0)),
                                        (
                                            If(
                                                BinOp(
                                                    "==",
                                                    Var("merch"),
                                                    Param("target"),
                                                ),
                                                (
                                                    ResidentStore(
                                                        "customers",
                                                        Var("card"),
                                                        Const(1),
                                                    ),
                                                ),
                                            ),
                                        ),
                                        (
                                            If(
                                                BinOp(
                                                    "and",
                                                    BinOp(
                                                        "==",
                                                        ResidentLoad(
                                                            "customers", Var("card")
                                                        ),
                                                        Const(1),
                                                    ),
                                                    BinOp(
                                                        "!=",
                                                        Var("merch"),
                                                        Param("target"),
                                                    ),
                                                ),
                                                (
                                                    AtomicAdd(
                                                        "counts",
                                                        Var("merch"),
                                                        Const(1),
                                                    ),
                                                ),
                                            ),
                                        ),
                                    ),
                                    Assign("card", Const(0)),
                                    Assign("merch", Const(0)),
                                    Assign("fld", Const(0)),
                                ),
                                (
                                    If(
                                        BinOp("==", Var("fld"), Const(0)),
                                        (
                                            Assign(
                                                "card",
                                                BinOp(
                                                    "+",
                                                    BinOp("*", Var("card"), Const(10)),
                                                    digit(),
                                                ),
                                            ),
                                        ),
                                        (
                                            If(
                                                BinOp("==", Var("fld"), Const(1)),
                                                (
                                                    Assign(
                                                        "merch",
                                                        BinOp(
                                                            "+",
                                                            BinOp(
                                                                "*",
                                                                Var("merch"),
                                                                Const(10),
                                                            ),
                                                            digit(),
                                                        ),
                                                    ),
                                                ),
                                            ),
                                        ),
                                    ),
                                ),
                            ),
                        ),
                    ),
                ),
            ),
        )
        return Kernel(
            name="affinityKernel",
            body=body,
            mapped={"transactions": BYTES},
            resident=("customers", "counts"),
            params=("target", "pass_idx"),
        )

    def make_ir_context(self, data: AppData) -> ExecutionContext:
        return ExecutionContext(
            mapped={"transactions": data.mapped["transactions"]},
            resident={
                "customers": np.zeros(N_CARDS, dtype=np.int64),
                "counts": np.zeros(N_MERCHANTS, dtype=np.int64),
            },
            params=dict(data.params),
        )

    def ir_output(self, data: AppData, ctx: ExecutionContext) -> np.ndarray:
        return ctx.resident["counts"]


@register
class MastercardIndexedApp(_MastercardBase):
    """Indexed variant: the record index exposes the two key fields."""

    name = "mastercard_indexed"
    display_name = "MasterCard Affinity (indexed)"
    paper_data_bytes = int(6.4 * GB)

    def generate(self, n_bytes: Optional[int] = None, seed: int = 0) -> AppData:
        return _generate_common(self.name, n_bytes or self.default_bytes(), seed)

    # units are RECORDS: the index removes the need to scan
    def n_units(self, data: AppData) -> int:
        return int(data.meta["cards"].size)

    def access_profile(self, data: AppData) -> AccessProfile:
        avg = float(data.meta["avg_record"])
        return AccessProfile(
            record_bytes=avg,
            read_bytes_per_record=2 * KEY_WIDTH,  # ~25% of the record
            write_bytes_per_record=0.0,
            reads_per_record=2,
            writes_per_record=0.0,
            elem_bytes=KEY_WIDTH,
            gpu_ops_per_record=2.0 * KEY_WIDTH * 6 + 30.0,
            cpu_ops_per_record=2.0 * KEY_WIDTH * 7 + 35.0,
            resident_bytes_per_record=24.0,  # index reads + table updates
            pattern_friendly=False,  # index-driven irregular strides
            sliceable=True,
            variable_length=True,
            passes=2,
            gather_granularity_bytes=float(KEY_WIDTH),
            addresses_per_record=2.0,  # two key-field spans per record
            gpu_divergence=6.0,
        )

    def chunk_read_offsets(self, data: AppData, lo: int, hi: int) -> np.ndarray:
        starts = data.meta["record_starts"][lo:hi]
        offs = np.stack([starts, starts + KEY_WIDTH + 1], axis=1)
        return offs.reshape(-1)

    # ------------------------------------------------------- compiler path
    def kernel(self) -> Kernel:
        """Index-driven key reads; addresses come from the resident index."""
        digits_of = lambda base_var, out: tuple(
            s
            for j in range(KEY_WIDTH)
            for s in (
                Assign(
                    "c",
                    Load(
                        MappedRef(
                            "transactions",
                            BinOp("+", Var(base_var), Const(j)),
                            "byte",
                        )
                    ),
                ),
                Assign(
                    out,
                    BinOp(
                        "+",
                        BinOp("*", Var(out), Const(10)),
                        BinOp("-", Var("c"), Const(ord("0"))),
                    ),
                ),
            )
        )
        body = (
            For(
                "i",
                Var("start"),
                Var("end"),
                (
                    Assign("rs", ResidentLoad("record_index", Var("i"))),
                    Assign("ms", BinOp("+", Var("rs"), Const(KEY_WIDTH + 1))),
                    Assign("card", Const(0)),
                    Assign("merch", Const(0)),
                )
                + digits_of("rs", "card")
                + digits_of("ms", "merch")
                + (
                    If(
                        BinOp("==", Param("pass_idx"), Const(0)),
                        (
                            If(
                                BinOp("==", Var("merch"), Param("target")),
                                (ResidentStore("customers", Var("card"), Const(1)),),
                            ),
                        ),
                        (
                            If(
                                BinOp(
                                    "and",
                                    BinOp(
                                        "==",
                                        ResidentLoad("customers", Var("card")),
                                        Const(1),
                                    ),
                                    BinOp("!=", Var("merch"), Param("target")),
                                ),
                                (AtomicAdd("counts", Var("merch"), Const(1)),),
                            ),
                        ),
                    ),
                ),
            ),
        )
        return Kernel(
            name="affinityIndexedKernel",
            body=body,
            mapped={"transactions": BYTES},
            resident=("customers", "counts", "record_index"),
            params=("target", "pass_idx"),
        )

    def make_ir_context(self, data: AppData) -> ExecutionContext:
        return ExecutionContext(
            mapped={"transactions": data.mapped["transactions"]},
            resident={
                "customers": np.zeros(N_CARDS, dtype=np.int64),
                "counts": np.zeros(N_MERCHANTS, dtype=np.int64),
                "record_index": data.meta["record_starts"],
            },
            params=dict(data.params),
        )

    def ir_output(self, data: AppData, ctx: ExecutionContext) -> np.ndarray:
        return ctx.resident["counts"]
