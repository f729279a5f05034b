"""Vectorized kernel compiler: lower kernel IR to NumPy batch execution.

The tree-walking :class:`~repro.kernelc.codegen.KernelInterpreter` executes
one record at a time; this module compiles a kernel (original, addrgen, or
databuf form) into a generated Python function that executes an entire
``[lo, hi)`` record range per call as NumPy array operations:

* ``Assign``/``BinOp``/``UnOp`` become array expressions over per-lane
  arrays (one lane per record);
* ``If`` lowers to masked predication — vector conditions compress the
  lane set for each branch and merge assignments back with a blend, while
  Param/Const-only conditions stay plain Python ``if``;
* uniform-bound inner ``For`` loops stay Python loops over array state
  (each iteration advances all lanes at once);
* mapped ``Load``/``Store`` become fancy-indexed gathers/scatters;
* ``EmitAddress`` logs whole lane-vectors of byte offsets, and purely
  affine addrgen slices additionally collapse to a closed-form
  :class:`AffineStream` (``base + stride * arange``) that can feed
  ``PatternRecognizer``/``AdaptiveAddressTracker`` without materializing
  per-element :class:`~repro.kernelc.codegen.AddressRecord` objects.

Exactness is the contract, not a best effort: outputs, the full
:class:`~repro.kernelc.codegen.InterpStats` counters, and emitted address
streams match the interpreter bit-for-bit for every kernel the
vectorizability analysis (:func:`repro.kernelc.analysis.analyze_vectorizable`)
admits. Kernels it rejects — data-dependent ``While``/``Break``,
loop-carried locals, non-reassociable float ``AtomicAdd`` interleavings,
opaque device functions — fall back to the interpreter, which is retained
unchanged as the equivalence oracle (see ``verify --compiled``).

Known, deliberate width caveat: compiled integer lanes are int64 while the
interpreter carries width-unbounded Python ints; kernels whose intermediate
values exceed 2**63 would diverge. Every packaged app applies an explicit
modulus well below that (the paper's kernels model 32/64-bit registers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional

import numpy as np

from repro.errors import BufferOverrun, VectorizationError
from repro.kernelc.analysis import (
    BUILTIN_VARS,
    VectorizationReport,
    _expr_reads,
    _is_param_uniform,
    _stmt_eval_exprs,
    analyze_vectorizable,
)
from repro.kernelc.codegen import AddressRecord, ExecutionContext, InterpStats
from repro.kernelc.ir import (
    Assign,
    AtomicAdd,
    BinOp,
    Call,
    Const,
    DataBufLoad,
    EmitAddress,
    Expr,
    ExprStmt,
    For,
    If,
    Kernel,
    Load,
    Param,
    ResidentLoad,
    ResidentStore,
    Stmt,
    Store,
    UnOp,
    Var,
    WriteBufStore,
    walk_exprs,
    walk_stmts,
)


# ---------------------------------------------------------------------------
# runtime support object the generated code calls into
# ---------------------------------------------------------------------------

def _lift(values: np.ndarray) -> np.ndarray:
    """Widen gathered lanes to the interpreter's scalar domain: Python-int
    semantics map to int64 lanes, everything float to float64."""
    if values.dtype.kind in "iub":
        return values.astype(np.int64)
    return values.astype(np.float64)


class _Runtime:
    """Per-run state + polymorphic helpers for one compiled execution.

    Every helper accepts scalars (uniform values) or per-lane arrays and
    multiplies its InterpStats contribution by the *current lane count*,
    reproducing the interpreter's per-record counting exactly.
    """

    def __init__(self, ctx: ExecutionContext, lo: int, hi: int, tid: int = 0,
                 extra: Optional[dict] = None):
        self.ctx = ctx
        self.lo = int(lo)
        self.hi = int(hi)
        self.tid = tid
        self.extra = dict(extra or {})
        self.stats = InterpStats()
        self.root_lanes = np.arange(0)  # reassigned by the compiled body
        self.read_log: list = []   # (array, lanes, offsets, nbytes, dtype)
        self.write_log: list = []
        self.writebuf_log: list = []  # + values
        self.windows: dict = {}
        self._sites: list = []

    # ------------------------------------------------------ lane plumbing
    @staticmethod
    def lanes(v, n):
        return v if isinstance(v, np.ndarray) else np.full(n, v)

    @staticmethod
    def compress(v, mask):
        return v[mask] if isinstance(v, np.ndarray) else v

    def mask(self, cond, n):
        m = np.asarray(cond, dtype=bool)
        if m.ndim == 0:
            m = np.full(n, bool(m))
        return m

    @staticmethod
    def blend(mask, base, then_val, else_val):
        """Merge branch-scope assignments back into the parent lane set."""
        vals = [np.asarray(v) for v in (base, then_val, else_val)
                if v is not None]
        dt = np.result_type(*vals) if vals else np.int64
        out = np.zeros(mask.shape[0], dtype=dt)
        if base is not None:
            out[:] = base
        if then_val is not None:
            out[mask] = then_val
        if else_val is not None:
            out[~mask] = else_val
        return out

    # ------------------------------------------------------ eager logic ops
    @staticmethod
    def b_and(a, b):
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return np.logical_and(a, b)
        return bool(a) and bool(b)

    @staticmethod
    def b_or(a, b):
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return np.logical_or(a, b)
        return bool(a) or bool(b)

    @staticmethod
    def b_not(a):
        return np.logical_not(a) if isinstance(a, np.ndarray) else (not a)

    @staticmethod
    def b_min(a, b):
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return np.minimum(a, b)
        return min(a, b)

    @staticmethod
    def b_max(a, b):
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return np.maximum(a, b)
        return max(a, b)

    # ------------------------------------------------------ mapped accesses
    def gather(self, view, idx, nbytes, n):
        self.stats.n_mapped_reads += n
        self.stats.mapped_read_bytes += n * nbytes
        if isinstance(idx, np.ndarray):
            return _lift(view[idx.astype(np.int64)])
        if n == 0:
            return 0
        return view[int(idx)].item()

    def scatter(self, view, idx, val, nbytes, n):
        self.stats.n_mapped_writes += n
        self.stats.mapped_write_bytes += n * nbytes
        if n == 0:
            return
        idx = self.lanes(idx, n).astype(np.int64)
        view[idx] = val

    def writebuf(self, array, lanes, offsets, val, nbytes, dtype, n):
        self.stats.n_mapped_writes += n
        self.stats.mapped_write_bytes += n * nbytes
        if n == 0:
            return
        self.writebuf_log.append(
            (array, lanes, self.lanes(offsets, n), nbytes, dtype,
             self.lanes(val, n))
        )

    def emit(self, log, array, lanes, offsets, nbytes, dtype, n):
        if n == 0:
            return
        log.append((array, lanes, self.lanes(offsets, n), nbytes, dtype))

    # ---------------------------------------------------- resident accesses
    def res_load(self, arr, idx, n):
        self.stats.n_resident_accesses += n
        if isinstance(idx, np.ndarray):
            return _lift(arr[idx.astype(np.int64)])
        if n == 0:
            return 0
        v = arr[int(idx)]
        return v.item() if isinstance(v, np.generic) else v

    def res_store(self, arr, idx, val, n):
        self.stats.n_resident_accesses += n
        if n == 0:
            return
        if isinstance(idx, np.ndarray):
            # in-order fancy assignment: the last lane writing a slot wins,
            # matching the interpreter's per-record execution order
            arr[idx.astype(np.int64)] = val
        else:
            arr[int(idx)] = val[-1] if isinstance(val, np.ndarray) else val

    def atomic(self, arr, idx, val, n):
        self.stats.n_resident_accesses += n
        if n == 0:
            return
        idx = self.lanes(idx, n).astype(np.int64)
        if arr.dtype.kind in "iu" and (
            isinstance(val, float)
            or (isinstance(val, np.ndarray) and val.dtype.kind == "f")
        ):
            val = np.asarray(val).astype(np.int64)
        # np.add.at applies increments unbuffered in index order == lane
        # order, so even colliding slots accumulate exactly like the
        # per-record interpreter
        np.add.at(arr, idx, val)

    # --------------------------------------------------------- device calls
    def call(self, name, n, *args):
        self.stats.n_calls += n
        fn = self.ctx.device_fns[name]
        out = fn.vectorized(self.ctx, *[self.lanes(a, n) for a in args])
        return np.asarray(out)

    # -------------------------------------------------------------- databuf
    def set_sites(self, values: Iterable, n_sites: int, site_meta) -> None:
        vals = list(values)
        self._sites = []
        for k, (nbytes, dtype) in enumerate(site_meta):
            sub = np.asarray(vals[k::n_sites], dtype=dtype)
            self._sites.append(_lift(sub))

    def pop_site(self, k, nbytes, n):
        self.stats.n_mapped_reads += n
        self.stats.mapped_read_bytes += n * nbytes
        site = self._sites[k]
        if site.shape[0] != n:
            raise BufferOverrun(
                f"data buffer site {k} holds {site.shape[0]} values for "
                f"{n} lanes"
            )
        return site

    def window_load(self, array, offsets, nbytes, dtype, n):
        self.stats.n_mapped_reads += n
        self.stats.mapped_read_bytes += n * nbytes
        base, window = self.windows[array]
        if n == 0:
            return 0
        rel = self.lanes(offsets, n).astype(np.int64) - base
        if rel.size and (rel.min() < 0 or rel.max() + nbytes > window.nbytes):
            raise BufferOverrun(
                f"fallback window miss for {array!r}: offsets outside the "
                f"{window.nbytes}-byte window"
            )
        mat = window[rel[:, None] + np.arange(nbytes)]
        vals = np.ascontiguousarray(mat).view(dtype)[:, 0]
        return _lift(vals)


# ---------------------------------------------------------------------------
# run result: stats + lane-major address streams
# ---------------------------------------------------------------------------

def _stream(log, root_lanes):
    """Flatten an emit log to interpreter (record-major) order.

    Returns ``(offsets, order_meta)`` where ``order_meta`` is a list of
    event indices aligned with ``offsets``. The common case — every event
    covered the full unmasked lane set — interleaves by reshape; masked
    events fall back to a stable argsort on lane ids, which preserves
    per-lane program order.
    """
    if not log:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    n = root_lanes.shape[0]
    if all(entry[1] is root_lanes for entry in log):
        offs = np.stack([entry[2] for entry in log], axis=1).ravel()
        ev = np.tile(np.arange(len(log)), n)
        return offs.astype(np.int64), ev
    lanes_all = np.concatenate([entry[1] for entry in log])
    offs_all = np.concatenate(
        [np.asarray(entry[2], dtype=np.int64) for entry in log]
    )
    ev_all = np.concatenate(
        [np.full(entry[1].shape[0], i) for i, entry in enumerate(log)]
    )
    order = np.argsort(lanes_all, kind="stable")
    return offs_all[order], ev_all[order]


class CompiledRun:
    """Outcome of one compiled range execution."""

    def __init__(self, rt: _Runtime):
        self._rt = rt
        self.stats: InterpStats = rt.stats

    def read_offsets(self) -> np.ndarray:
        return _stream(self._rt.read_log, self._rt.root_lanes)[0]

    def write_offsets(self) -> np.ndarray:
        return _stream(self._rt.write_log, self._rt.root_lanes)[0]

    def read_records(self) -> list:
        offs, ev = _stream(self._rt.read_log, self._rt.root_lanes)
        log = self._rt.read_log
        return [
            AddressRecord(log[e][0], int(o), log[e][3], log[e][4], False)
            for o, e in zip(offs, ev)
        ]

    def write_queue(self) -> list:
        """Databuf-form pending writes in interpreter order:
        ``[(AddressRecord, value), ...]``."""
        log = self._rt.writebuf_log
        if not log:
            return []
        offs, ev = _stream(
            [entry[:5] for entry in log], self._rt.root_lanes
        )
        # rebuild per-entry positions to index the value arrays
        pos: dict = {}
        out = []
        for o, e in zip(offs, ev):
            p = pos.get(e, 0)
            pos[e] = p + 1
            entry = log[e]
            out.append(
                (AddressRecord(entry[0], int(o), entry[3], entry[4], True),
                 entry[5][p])
            )
        return out


# ---------------------------------------------------------------------------
# code generation
# ---------------------------------------------------------------------------

def _san(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def _n_ops(exprs) -> int:
    return sum(
        1 for x in exprs for e in walk_exprs(x) if isinstance(e, (BinOp, UnOp))
    )


_BUILTIN_PYNAMES = {
    "tid": "_tid", "start": "_lo", "end": "_hi", "num_threads": "_xnt",
}


class _Emitter:
    def __init__(self, kernel: Kernel, report: VectorizationReport,
                 databuf_mode: str):
        self.k = kernel
        self.report = report
        self.databuf_mode = databuf_mode
        self.lines: list = []
        self.indent = 1
        self.tmp = 0
        self.sid = 0
        self.views: dict = {}     # (array, field) -> pyname
        self.residents: dict = {}  # array -> pyname
        self.params: dict = {}     # name -> pyname
        self.site_meta: list = []  # queue-mode pop sites: (nbytes, dtype)

    # ----------------------------------------------------------- plumbing
    def w(self, s: str) -> None:
        self.lines.append("    " * self.indent + s)

    def fresh(self, stem: str) -> str:
        self.tmp += 1
        return f"_{stem}{self.tmp}"

    def view(self, array: str, fname: str) -> str:
        key = (array, fname)
        if key not in self.views:
            self.views[key] = f"_f_{_san(array)}_{_san(fname)}"
        return self.views[key]

    def resident(self, array: str) -> str:
        if array not in self.residents:
            self.residents[array] = f"_r_{_san(array)}"
        return self.residents[array]

    def param(self, name: str) -> str:
        if name not in self.params:
            self.params[name] = f"_p_{_san(name)}"
        return self.params[name]

    # --------------------------------------------------------- expressions
    def expr(self, e: Expr, env: dict, ncur: str, lanes: str) -> str:
        if isinstance(e, Const):
            return repr(e.value)
        if isinstance(e, Var):
            return env[e.name]
        if isinstance(e, Param):
            return self.param(e.name)
        if isinstance(e, BinOp):
            lhs = self.expr(e.lhs, env, ncur, lanes)
            rhs = self.expr(e.rhs, env, ncur, lanes)
            if e.op in ("and", "or", "min", "max"):
                return f"rt.b_{e.op}({lhs}, {rhs})"
            return f"({lhs} {e.op} {rhs})"
        if isinstance(e, UnOp):
            v = self.expr(e.operand, env, ncur, lanes)
            if e.op == "not":
                return f"rt.b_not({v})"
            return f"({e.op}{v})"
        if isinstance(e, Call):
            args = ", ".join(self.expr(a, env, ncur, lanes) for a in e.args)
            sep = ", " if args else ""
            return f"rt.call({e.fn!r}, {ncur}{sep}{args})"
        if isinstance(e, Load):
            fspec = self.k.schema(e.ref.array).field(e.ref.field_name)
            idx = self.expr(e.ref.index, env, ncur, lanes)
            return (
                f"rt.gather({self.view(e.ref.array, e.ref.field_name)}, "
                f"{idx}, {fspec.nbytes}, {ncur})"
            )
        if isinstance(e, DataBufLoad):
            ref = e.original
            schema = self.k.schema(ref.array)
            fspec = schema.field(ref.field_name)
            if self.databuf_mode == "queue":
                site = len(self.site_meta)
                self.site_meta.append((fspec.nbytes, fspec.dtype))
                return f"rt.pop_site({site}, {fspec.nbytes}, {ncur})"
            idx = self.expr(ref.index, env, ncur, lanes)
            off = f"(({idx}) * {schema.record_size} + {fspec.offset})"
            return (
                f"rt.window_load({ref.array!r}, {off}, {fspec.nbytes}, "
                f"{fspec.dtype!r}, {ncur})"
            )
        if isinstance(e, ResidentLoad):
            idx = self.expr(e.index, env, ncur, lanes)
            return f"rt.res_load({self.resident(e.array)}, {idx}, {ncur})"
        raise VectorizationError(
            f"cannot lower expression {type(e).__name__}"
        )

    # ---------------------------------------------------------- statements
    def _count_ops(self, s: Stmt, ncur: str) -> None:
        k = _n_ops(_stmt_eval_exprs(s))
        if k:
            self.w(f"stats.n_ops += {k} * {ncur}")

    def body(self, stmts, env: dict, ncur: str, lanes: str) -> None:
        before = len(self.lines)
        for s in stmts:
            self.stmt(s, env, ncur, lanes)
        if len(self.lines) == before:
            self.w("pass")

    def stmt(self, s: Stmt, env: dict, ncur: str, lanes: str) -> None:
        if isinstance(s, Assign):
            self._count_ops(s, ncur)
            code = self.expr(s.value, env, ncur, lanes)
            target = env.get("__prefix__", "v_") + _san(s.var)
            self.w(f"{target} = {code}")
            env[s.var] = target
        elif isinstance(s, Store):
            self._count_ops(s, ncur)
            fspec = self.k.schema(s.ref.array).field(s.ref.field_name)
            sv = self.fresh("sv")
            self.w(f"{sv} = {self.expr(s.value, env, ncur, lanes)}")
            idx = self.expr(s.ref.index, env, ncur, lanes)
            self.w(
                f"rt.scatter({self.view(s.ref.array, s.ref.field_name)}, "
                f"{idx}, {sv}, {fspec.nbytes}, {ncur})"
            )
        elif isinstance(s, WriteBufStore):
            self._count_ops(s, ncur)
            schema = self.k.schema(s.original.array)
            fspec = schema.field(s.original.field_name)
            sv = self.fresh("sv")
            self.w(f"{sv} = {self.expr(s.value, env, ncur, lanes)}")
            idx = self.expr(s.original.index, env, ncur, lanes)
            off = f"({idx}) * {schema.record_size} + {fspec.offset}"
            self.w(
                f"rt.writebuf({s.original.array!r}, {lanes}, {off}, {sv}, "
                f"{fspec.nbytes}, {fspec.dtype!r}, {ncur})"
            )
        elif isinstance(s, EmitAddress):
            self._count_ops(s, ncur)
            schema = self.k.schema(s.ref.array)
            fspec = schema.field(s.ref.field_name)
            idx = self.expr(s.ref.index, env, ncur, lanes)
            off = f"({idx}) * {schema.record_size} + {fspec.offset}"
            log = "rt.write_log" if s.is_write else "rt.read_log"
            self.w(
                f"rt.emit({log}, {s.ref.array!r}, {lanes}, {off}, "
                f"{fspec.nbytes}, {fspec.dtype!r}, {ncur})"
            )
        elif isinstance(s, ResidentStore):
            self._count_ops(s, ncur)
            ri = self.fresh("ri")
            self.w(f"{ri} = {self.expr(s.index, env, ncur, lanes)}")
            rv = self.fresh("rv")
            self.w(f"{rv} = {self.expr(s.value, env, ncur, lanes)}")
            self.w(
                f"rt.res_store({self.resident(s.array)}, {ri}, {rv}, {ncur})"
            )
        elif isinstance(s, AtomicAdd):
            self._count_ops(s, ncur)
            ri = self.fresh("ri")
            self.w(f"{ri} = {self.expr(s.index, env, ncur, lanes)}")
            rv = self.fresh("rv")
            self.w(f"{rv} = {self.expr(s.value, env, ncur, lanes)}")
            self.w(
                f"rt.atomic({self.resident(s.array)}, {ri}, {rv}, {ncur})"
            )
        elif isinstance(s, ExprStmt):
            self._count_ops(s, ncur)
            self.w(f"_ = {self.expr(s.expr, env, ncur, lanes)}")
        elif isinstance(s, If):
            self._if(s, env, ncur, lanes)
        elif isinstance(s, For):
            self._for(s, env, ncur, lanes)
        else:  # pragma: no cover - analysis rejects everything else
            raise VectorizationError(
                f"cannot lower statement {type(s).__name__}"
            )

    def _for(self, s: For, env: dict, ncur: str, lanes: str) -> None:
        self._count_ops(s, ncur)
        start = self.expr(s.start, env, ncur, lanes)
        end = self.expr(s.end, env, ncur, lanes)
        step = self.expr(s.step, env, ncur, lanes)
        jname = env.get("__prefix__", "v_") + _san(s.var)
        self.w(f"for {jname} in range(int({start}), int({end}), int({step})):")
        env[s.var] = jname
        self.indent += 1
        self.body(s.body, env, ncur, lanes)
        self.indent -= 1

    @staticmethod
    def _names_in(stmts) -> tuple:
        reads: set = set()
        assigns: set = set()
        for s in walk_stmts(stmts):
            for x in _stmt_eval_exprs(s):
                reads |= _expr_reads(x)
            if isinstance(s, Assign):
                assigns.add(s.var)
            elif isinstance(s, For):
                assigns.add(s.var)
        return reads, assigns

    def _if(self, s: If, env: dict, ncur: str, lanes: str) -> None:
        self._count_ops(s, ncur)
        cond = self.expr(s.cond, env, ncur, lanes)
        if _is_param_uniform(s.cond):
            # the whole launch takes the same branch: plain Python control
            # flow, shared variable namespace (definite-assignment analysis
            # guarantees no branch-local value escapes unassigned)
            self.w(f"if {cond}:")
            self.indent += 1
            env_t = dict(env)
            self.body(s.then_body, env_t, ncur, lanes)
            self.indent -= 1
            self.w("else:")
            self.indent += 1
            env_e = dict(env)
            self.body(s.else_body, env_e, ncur, lanes)
            self.indent -= 1
            for branch_env in (env_t, env_e):
                for name, pyname in branch_env.items():
                    env.setdefault(name, pyname)
            return

        self.sid += 1
        sid = self.sid
        cm = f"_m{sid}"
        self.w(f"{cm} = rt.mask({cond}, {ncur})")
        nm = f"_mn{sid}"
        self.w(f"{nm} = ~{cm}")

        def branch(stmts, mask: str, tag: str):
            if not stmts:
                return {}, set()
            suffix = f"_s{sid}{tag}"
            blanes = f"_lane{sid}{tag}"
            bn = f"_n{sid}{tag}"
            self.w(f"{blanes} = {lanes}[{mask}]")
            self.w(f"{bn} = {blanes}.shape[0]")
            reads, assigns = self._names_in(stmts)
            benv = {"__prefix__": f"v{suffix}_"}
            for name, pyname in env.items():
                if name == "__prefix__":
                    continue
                if name in BUILTIN_VARS:
                    benv[name] = pyname
                    continue
                if name in reads or name in assigns:
                    local = f"v{suffix}_{_san(name)}"
                    self.w(f"{local} = rt.compress({pyname}, {mask})")
                    benv[name] = local
                else:
                    benv[name] = pyname
            self.body(stmts, benv, bn, blanes)
            return benv, assigns

        env_t, assigned_t = branch(s.then_body, cm, "t")
        env_e, assigned_e = branch(s.else_body, nm, "e")
        prefix = env.get("__prefix__", "v_")
        for name in sorted(assigned_t | assigned_e):
            base = env.get(name, None)
            tv = env_t[name] if name in assigned_t else None
            ev = env_e[name] if name in assigned_e else None
            target = prefix + _san(name)
            self.w(
                f"{target} = rt.blend({cm}, {base or 'None'}, "
                f"{tv or 'None'}, {ev or 'None'})"
            )
            env[name] = target

    # -------------------------------------------------------------- driver
    def build(self) -> str:
        body_lines = self.lines  # filled below, preamble prepended after
        rec_for = None
        pre: list = []
        for stmt in self.k.body:
            if isinstance(stmt, For):
                rec_for = stmt
                break
            pre.append(stmt)
        assert rec_for is not None

        env: dict = {
            name: pyname for name, pyname in _BUILTIN_PYNAMES.items()
        }
        env["__prefix__"] = "v_"
        for stmt in pre:
            self.stmt(stmt, env, "1", "None")

        self._count_ops(rec_for, "1")
        rec = env["__prefix__"] + _san(rec_for.var)
        start = self.expr(rec_for.start, env, "1", "None")
        end = self.expr(rec_for.end, env, "1", "None")
        step = self.expr(rec_for.step, env, "1", "None")
        self.w(
            f"{rec} = np.arange(int({start}), int({end}), int({step}), "
            "dtype=np.int64)"
        )
        self.w(f"_n0 = {rec}.shape[0]")
        self.w("if _n0 == 0:")
        self.w("    return")
        self.w("_lane0 = np.arange(_n0)")
        self.w("rt.root_lanes = _lane0")
        env[rec_for.var] = rec
        self.body(rec_for.body, env, "_n0", "_lane0")

        header = [
            "def _compiled(rt):",
            "    ctx = rt.ctx",
            "    stats = rt.stats",
            "    _lo = rt.lo",
            "    _hi = rt.hi",
            "    _tid = rt.tid",
        ]
        if any(v == "_xnt" for v in _BUILTIN_PYNAMES.values()):
            header.append("    _xnt = rt.extra.get('num_threads')")
        for (array, fname), pyname in sorted(self.views.items()):
            header.append(f"    {pyname} = ctx.mapped[{array!r}][{fname!r}]")
        for array, pyname in sorted(self.residents.items()):
            header.append(f"    {pyname} = ctx.resident[{array!r}]")
        for name, pyname in sorted(self.params.items()):
            header.append(f"    {pyname} = ctx.params[{name!r}]")
        return "\n".join(header + body_lines) + "\n"


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

@dataclass
class CompiledKernel:
    """A kernel lowered to a NumPy batch function over ``[lo, hi)``."""

    kernel: Kernel
    source: str
    report: VectorizationReport
    n_sites: int
    site_meta: tuple
    _fn: Any

    def run_range(
        self,
        ctx: ExecutionContext,
        lo: int,
        hi: int,
        tid: int = 0,
        data_queue: Optional[Iterable] = None,
        fallback_windows: Optional[dict] = None,
        **extra: Any,
    ) -> CompiledRun:
        """Execute the whole record range at once; returns the run's
        stats and (for addrgen/databuf forms) its logs."""
        rt = _Runtime(ctx, lo, hi, tid, extra)
        if fallback_windows:
            rt.windows = dict(fallback_windows)
        if data_queue is not None and self.n_sites:
            rt.set_sites(data_queue, self.n_sites, self.site_meta)
        self._fn(rt)
        return CompiledRun(rt)


def compile_kernel(
    kernel: Kernel,
    vector_fns: Iterable[str] = (),
    resident_kinds: Optional[dict] = None,
    databuf_mode: str = "window",
) -> CompiledKernel:
    """Lower ``kernel`` to a batch function, or raise
    :class:`~repro.errors.VectorizationError` naming every obstruction."""
    report = analyze_vectorizable(
        kernel,
        vector_fns=vector_fns,
        resident_kinds=resident_kinds,
        databuf_mode=databuf_mode,
    )
    if not report.ok:
        raise VectorizationError(
            f"kernel {kernel.name!r} is not vectorizable: "
            + "; ".join(report.reasons)
        )
    emitter = _Emitter(kernel, report, databuf_mode)
    source = emitter.build()
    namespace: dict = {"np": np}
    exec(compile(source, f"<compiled:{kernel.name}>", "exec"), namespace)
    return CompiledKernel(
        kernel=kernel,
        source=source,
        report=report,
        n_sites=len(emitter.site_meta),
        site_meta=tuple(emitter.site_meta),
        _fn=namespace["_compiled"],
    )


def try_compile_kernel(
    kernel: Kernel,
    vector_fns: Iterable[str] = (),
    resident_kinds: Optional[dict] = None,
    databuf_mode: str = "window",
) -> Optional[CompiledKernel]:
    """:func:`compile_kernel`, returning None instead of raising."""
    try:
        return compile_kernel(
            kernel, vector_fns=vector_fns, resident_kinds=resident_kinds,
            databuf_mode=databuf_mode,
        )
    except VectorizationError:
        return None


def resident_kinds_of(resident: dict) -> dict:
    """dtype-kind map (``analyze_vectorizable``'s shape) from live state."""
    return {
        k: (v.dtype.kind if isinstance(v, np.ndarray) and v.ndim == 1
            else None)
        for k, v in resident.items()
    }


def vector_fn_names(device_fns: dict) -> set:
    """Device functions carrying a ``vectorized`` batch implementation."""
    return {
        name for name, fn in device_fns.items()
        if callable(getattr(fn, "vectorized", None))
    }


# ---------------------------------------------------------------------------
# closed-form affine address streams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineStream:
    """Closed-form description of a purely affine emitted address stream.

    Record ``i`` emits addresses ``i * rec_stride + offsets[k]`` in event
    order; the whole ``[lo, hi)`` stream is therefore
    ``base + stride * arange`` arithmetic — no per-element records."""

    array: str
    rec_stride: int
    offsets: tuple
    nbytes: tuple

    def expand(self, lo: int, hi: int) -> np.ndarray:
        i = np.arange(lo, hi, dtype=np.int64)
        offs = np.asarray(self.offsets, dtype=np.int64)
        return (i[:, None] * self.rec_stride + offs).ravel()

    def pattern(self, lo: int):
        """Equivalent :class:`~repro.runtime.pattern.StridePattern` —
        feedable to ``PatternRecognizer``/``AdaptiveAddressTracker``
        consumers without materializing the stream."""
        from repro.runtime.pattern import StridePattern

        offs = self.offsets
        strides = tuple(
            offs[k + 1] - offs[k] for k in range(len(offs) - 1)
        ) + (self.rec_stride - (offs[-1] - offs[0]),)
        return StridePattern(
            base=lo * self.rec_stride + offs[0], strides=strides
        )


def _affine_index(e: Expr, rec_var: str) -> Optional[tuple]:
    """``(a, b)`` with ``index == a * rec_var + b``, or None."""
    if isinstance(e, Const):
        return (0, e.value) if isinstance(e.value, int) else None
    if isinstance(e, Var):
        return (1, 0) if e.name == rec_var else None
    if isinstance(e, UnOp) and e.op == "-":
        sub = _affine_index(e.operand, rec_var)
        return None if sub is None else (-sub[0], -sub[1])
    if isinstance(e, BinOp):
        lhs = _affine_index(e.lhs, rec_var)
        rhs = _affine_index(e.rhs, rec_var)
        if lhs is None or rhs is None:
            return None
        if e.op == "+":
            return (lhs[0] + rhs[0], lhs[1] + rhs[1])
        if e.op == "-":
            return (lhs[0] - rhs[0], lhs[1] - rhs[1])
        if e.op == "*":
            if lhs[0] == 0:
                return (lhs[1] * rhs[0], lhs[1] * rhs[1])
            if rhs[0] == 0:
                return (lhs[0] * rhs[1], lhs[1] * rhs[1])
    return None


def affine_streams(
    kernel: Kernel,
) -> Optional[tuple]:
    """``(read_stream, write_stream)`` for a straight-line affine addrgen
    kernel, or None when any emit sits under control flow or has a
    non-affine index. Either element may be None when that side emits
    nothing (or mixes record strides)."""
    rec_for = None
    for stmt in kernel.body:
        if isinstance(stmt, For):
            if rec_for is not None:
                return None
            rec_for = stmt
        elif any(isinstance(s, EmitAddress) for s in walk_stmts([stmt])):
            return None
    if rec_for is None:
        return None
    if rec_for.start != Var("start") or rec_for.end != Var("end"):
        return None

    reads: list = []
    writes: list = []
    for stmt in rec_for.body:
        for sub in walk_stmts([stmt]):
            if not isinstance(sub, EmitAddress):
                continue
            if sub is not stmt:
                return None  # emit under control flow
            schema = kernel.schema(sub.ref.array)
            fspec = schema.field(sub.ref.field_name)
            aff = _affine_index(sub.ref.index, rec_for.var)
            if aff is None:
                return None
            a, b = aff
            entry = (
                sub.ref.array,
                a * schema.record_size,
                b * schema.record_size + fspec.offset,
                fspec.nbytes,
            )
            (writes if sub.is_write else reads).append(entry)

    def fold(entries) -> Optional[AffineStream]:
        if not entries:
            return None
        arrays = {e[0] for e in entries}
        strides = {e[1] for e in entries}
        if len(arrays) != 1 or len(strides) != 1:
            return None
        return AffineStream(
            array=entries[0][0],
            rec_stride=entries[0][1],
            offsets=tuple(e[2] for e in entries),
            nbytes=tuple(e[3] for e in entries),
        )

    return fold(reads), fold(writes)
