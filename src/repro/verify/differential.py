"""Differential oracle: every engine must reproduce the serial CPU output.

All five execution schemes share one functional semantics (the chunked
kernel path); they differ only in *when* data moves and *what* the timeline
charges. The single-threaded :class:`~repro.engines.cpu_serial.CpuSerialEngine`
is therefore a trusted oracle: it has no pipeline, no buffers, no overlap —
nothing that a scheduling bug could corrupt. This module runs the full
app × engine matrix against that oracle, compares outputs bit-for-bit
(via each app's ``outputs_equal``, which is exact equality for integer
outputs and tight-tolerance comparison for accumulated floats), and
invariant-checks every BigKernel timeline on the side.

The other oracle pillars (fastpath, compiled, analytic, multigpu, serve)
live here too, and every pillar reports through one shape: a
:class:`Report` holding one :class:`Cell` per graded unit.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Iterable, Optional

import numpy as np

from repro.apps import ALL_APPS
from repro.engines import ALL_ENGINES, CpuSerialEngine, EngineConfig
from repro.errors import VerificationError
from repro.units import MiB
from repro.verify.invariants import verify_run

ORACLE = CpuSerialEngine.name


def describe_output(value) -> str:
    """Short structural description of an engine output, for mismatch
    reports."""
    if isinstance(value, np.ndarray):
        return f"ndarray{value.shape} dtype={value.dtype}"
    if isinstance(value, dict):
        keys = ", ".join(sorted(map(str, value))[:6])
        return f"dict({len(value)}: {keys}{'...' if len(value) > 6 else ''})"
    if isinstance(value, (list, tuple)):
        return f"{type(value).__name__}(len={len(value)})"
    return f"{type(value).__name__}={value!r:.60}"


@dataclass
class Cell:
    """One graded unit of a verify pillar: an (app, engine) pair, a fuzz
    case, or a served request."""

    app: str
    engine: str
    ok: bool
    detail: str = ""
    #: how the cell ran (``fast``/``des-fallback``, ``clean``/``fuzz``,
    #: ``compiled``/``fallback``, ...); the headline counts cells per mode
    mode: str = ""
    #: a model's relative error against the DES, for pillars that price
    rel_err: Optional[float] = None


@dataclass
class Report:
    """Structured outcome of one pillar: its cells, the tolerance they
    were held to, and extra headline counters (shard traces audited,
    served/cached responses, ...)."""

    title: str
    cells: list[Cell] = field(default_factory=list)
    tol: Optional[float] = None
    counts: dict = field(default_factory=dict)

    @property
    def mismatches(self) -> list[Cell]:
        return [c for c in self.cells if not c.ok]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        """One headline (cell count, per-mode counts, counters, mismatch
        count, worst relative error, tolerance), then one line per failing
        cell."""
        modes = Counter(c.mode for c in self.cells if c.mode)
        notes = [f"{n} {what}" for what, n in (*modes.items(), *self.counts.items())]
        head = f"{self.title}: {len(self.cells)} cells"
        if notes:
            head += f" ({', '.join(notes)})"
        head += f", {len(self.mismatches)} mismatch(es)"
        errs = [c.rel_err for c in self.cells if c.rel_err is not None]
        if errs:
            head += f", worst rel err {max(errs):.2e}"
        if self.tol is not None:
            head += f", tol {self.tol:g}"
        lines = [head]
        for c in self.mismatches:
            line = f"  {c.app:12s} x {c.engine:12s} MISMATCH"
            if c.mode:
                line += f" [{c.mode}]"
            if c.rel_err is not None:
                line += f" rel {c.rel_err:.2e}"
            lines.append(f"{line} — {c.detail}")
        return "\n".join(lines)

    def raise_if_failed(self) -> None:
        if self.mismatches:
            named = ", ".join(f"({c.app}, {c.engine})" for c in self.mismatches)
            raise VerificationError(
                f"{self.title} mismatch in {named}\n{self.summary()}"
            )


def compare_outputs(app, reference, candidate) -> tuple[bool, str]:
    """(equal?, detail) for one engine output against the oracle's."""
    if app.outputs_equal(reference, candidate):
        return True, ""
    return False, (
        f"oracle={describe_output(reference)} vs "
        f"engine={describe_output(candidate)}"
    )


def run_differential(
    data_bytes: int = 2 * MiB,
    seed: int = 7,
    config: Optional[EngineConfig] = None,
    apps: Optional[Iterable] = None,
    engines: Optional[Iterable] = None,
    check_invariants: bool = True,
    traced_engines: tuple = ("bigkernel",),
) -> Report:
    """Run every engine on every app and diff against the serial oracle.

    ``apps``/``engines`` accept instances (defaults: all six apps, all five
    schemes). Timelines of engines named in ``traced_engines`` additionally
    pass through the invariant checkers when ``check_invariants`` is set
    (default: BigKernel only; the UVM pillar passes the uvm family); those
    cells run in mode ``traced``, and a violated timeline marks the cell
    as a mismatch even if the output agreed.
    """
    config = config or EngineConfig(chunk_bytes=512 * 1024)
    apps = list(apps) if apps is not None else [cls() for cls in ALL_APPS]
    engines = (
        list(engines) if engines is not None else [cls() for cls in ALL_ENGINES]
    )
    oracle = next((e for e in engines if e.name == ORACLE), None)
    if oracle is None:
        oracle = CpuSerialEngine()
        engines = [oracle] + engines

    # invariant checking reads full timelines; the analytic fast path
    # records none, so those cells run against the DES explicitly
    traced_config = config.with_(fastpath=False) if config.fastpath else config

    report = Report(f"differential vs {ORACLE}")
    for app in apps:
        data = app.generate(n_bytes=data_bytes, seed=seed)
        ref = oracle.run(app, data, config)
        report.cells.append(Cell(app.name, oracle.name, True))
        for engine in engines:
            if engine is oracle:
                continue
            wants_trace = check_invariants and engine.name in traced_engines
            res = engine.run(app, data, traced_config if wants_trace else config)
            ok, detail = compare_outputs(app, ref.output, res.output)
            if wants_trace:
                inv = verify_run(res, traced_config)
                if not inv.ok:
                    ok = False
                    detail = (detail + "; " if detail else "") + inv.summary()
            report.cells.append(
                Cell(app.name, engine.name, ok, detail,
                     "traced" if wants_trace else "")
            )
    return report


# --------------------------------------------------------------------------
# fastpath-vs-des mode: the analytic pipeline against the simulator
# --------------------------------------------------------------------------

#: relative tolerance for timeline comparisons: none, the fast path is
#: bit-identical to the DES
FASTPATH_TOL = 0


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _diff_runs(app, fast, des, tol: float) -> list[str]:
    """Compare two runs of the same (app, engine) cell; returns problems."""
    problems = []
    if not _close(fast.sim_time, des.sim_time, tol):
        problems.append(
            f"sim_time {fast.sim_time!r} != {des.sim_time!r}"
        )
    for key in set(fast.metrics.stage_totals) | set(des.metrics.stage_totals):
        a = fast.metrics.stage_totals.get(key, 0.0)
        b = des.metrics.stage_totals.get(key, 0.0)
        if not _close(a, b, tol):
            problems.append(f"stage_totals[{key}] {a!r} != {b!r}")
    for attr in ("bytes_h2d", "bytes_d2h", "n_chunks"):
        a, b = getattr(fast.metrics, attr), getattr(des.metrics, attr)
        if a != b:
            problems.append(f"{attr} {a} != {b}")
    if not app.outputs_equal(fast.output, des.output):
        problems.append(
            f"output {describe_output(fast.output)} != "
            f"{describe_output(des.output)}"
        )
    return problems


def run_fastpath_differential(
    data_bytes: int = 2 * MiB,
    seed: int = 7,
    config: Optional[EngineConfig] = None,
    apps: Optional[Iterable] = None,
    engines: Optional[Iterable] = None,
    tol: float = FASTPATH_TOL,
) -> Report:
    """Run every (app, engine) cell twice — fast path allowed vs DES forced —
    and assert ``sim_time``/``stage_totals``/byte counters/outputs agree.

    This is the oracle that lets the analytic pipeline ship: the DES is
    the trusted model, and every cell must agree within ``tol`` (by
    default exactly: the fast path is bit-identical). Cells where the
    fast path declines (mapped writes, short runs) compare DES vs DES and
    pass trivially — their mode is ``des-fallback``, while ``fast`` marks
    the cells that actually exercised the analytic engine. Engine
    instances are reused between the two runs of a cell, so schedule
    memoization is shared and only the simulation layer differs.
    """
    config = config or EngineConfig(chunk_bytes=512 * 1024)
    fast_config = config.with_(fastpath=True)
    des_config = config.with_(fastpath=False)
    apps = list(apps) if apps is not None else [cls() for cls in ALL_APPS]
    engines = (
        list(engines) if engines is not None else [cls() for cls in ALL_ENGINES]
    )

    report = Report("fastpath vs des", tol=tol)
    for app in apps:
        data = app.generate(n_bytes=data_bytes, seed=seed)
        for engine in engines:
            fast = engine.run(app, data, fast_config)
            des = engine.run(app, data, des_config)
            problems = _diff_runs(app, fast, des, tol)
            used_fastpath = fast.trace is None and des.trace is not None
            report.cells.append(Cell(
                app.name, engine.name, not problems, "; ".join(problems),
                "fast" if used_fastpath else "des-fallback",
            ))
    return report


# --------------------------------------------------------------------------
# compiled-vs-interpreter mode: the vectorized backend against the oracle
# --------------------------------------------------------------------------

#: absolute tolerance for compiled-vs-interpreter outputs (rtol is 0: the
#: backend targets bit-identical results, this guards against drift only)
COMPILED_TOL = 1e-9


def compiled_problems(kernel, ctx_i, ctx_c, make_ctx, n: int,
                      passes: int = 1) -> list[str]:
    """Run a kernel the vectorizability analysis admits through the
    interpreter (the oracle, on ``ctx_i``) and the compiled backend (on
    ``ctx_c``) over units ``[0, n)`` for ``passes`` passes; then, when
    the kernel slices and its addr-gen form compiles too, run that slice
    both ways on two fresh ``make_ctx()`` contexts.

    Returns every ``InterpStats`` counter and addr-gen address stream
    (read and write) that diverged — all integer-exact. Outputs stay in
    the two contexts for the caller to compare in its own terms.
    """
    from repro.errors import SlicingError
    from repro.kernelc.codegen import KernelInterpreter
    from repro.kernelc.compile import (
        compile_kernel,
        resident_kinds_of,
        try_compile_kernel,
        vector_fn_names,
    )
    from repro.kernelc.slicing import make_addrgen_kernel

    kinds = {
        "vector_fns": vector_fn_names(ctx_c.device_fns),
        "resident_kinds": resident_kinds_of(ctx_c.resident),
    }
    interp = KernelInterpreter(kernel, ctx_i)
    compiled = compile_kernel(kernel, **kinds)
    totals: Counter = Counter()
    for p in range(passes):
        if "pass_idx" in kernel.params:
            ctx_i.params["pass_idx"] = ctx_c.params["pass_idx"] = p
        interp.run_thread(0, 0, n)
        totals.update(asdict(compiled.run_range(ctx_c, 0, n).stats))
    problems = [
        f"stats.{f} {a} != {totals[f]}"
        for f, a in asdict(interp.stats).items()
        if a != totals[f]
    ]

    try:
        ag_kernel = make_addrgen_kernel(kernel)
    except SlicingError:
        return problems
    ag_compiled = try_compile_kernel(ag_kernel, **kinds)
    if ag_compiled is None:
        return problems
    ctx_ai, ctx_ac = make_ctx(), make_ctx()
    if "pass_idx" in ag_kernel.params:
        ctx_ai.params["pass_idx"] = ctx_ac.params["pass_idx"] = 0
    ag = KernelInterpreter(ag_kernel, ctx_ai)
    ag.run_thread(0, 0, n)
    run = ag_compiled.run_range(ctx_ac, 0, n)
    for kind, records, offsets in (
        ("read", ag.read_addresses, run.read_offsets()),
        ("write", ag.write_addresses, run.write_offsets()),
    ):
        expected = np.asarray([r.offset for r in records], dtype=np.int64)
        if not np.array_equal(offsets, expected):
            problems.append(f"{kind} address stream diverged")
    return problems


def _clone_app_data(data):
    """Independent copy of an AppData's mutable arrays (the kernels write
    mapped fields and resident tables in place)."""
    import copy as _copy

    clone = _copy.copy(data)
    clone.mapped = {k: v.copy() for k, v in data.mapped.items()}
    clone.resident = {
        k: (v.copy() if isinstance(v, np.ndarray) else _copy.deepcopy(v))
        for k, v in data.resident.items()
    }
    clone.params = dict(data.params)
    return clone


def _outputs_close(app, a, b, tol: float) -> tuple[bool, str]:
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            return False, f"output keys {sorted(a)} != {sorted(b)}"
        bad = [
            k for k in a if not np.allclose(a[k], b[k], rtol=0, atol=tol)
        ]
        if bad:
            return False, f"output arrays diverge: {bad}"
        return True, ""
    if isinstance(a, np.ndarray):
        if np.allclose(a, b, rtol=0, atol=tol):
            return True, ""
        return False, (
            f"output {describe_output(a)} != {describe_output(b)}"
        )
    return (a == b), "" if a == b else f"output {a!r} != {b!r}"


def run_compiled_differential(
    data_bytes: int = 2 * MiB,
    seed: int = 7,
    apps: Optional[Iterable] = None,
    tol: float = COMPILED_TOL,
) -> Report:
    """Run every app's kernel through the interpreter and (where the
    vectorizability analysis admits it) the compiled NumPy backend, over
    the same data, and compare outputs, InterpStats counters, and
    addr-gen address streams.

    The tree-walking interpreter is the trusted oracle; the compiled
    backend must agree exactly — stats and streams are integer-compared
    (:func:`compiled_problems`), outputs at ``rtol=0, atol=tol``. Apps the
    analysis rejects (``compiled_expected = False``: wordcount's and
    mastercard's loop-carried scanner state) run in mode ``fallback``,
    carry their fallback reasons in the cell detail, and pass if the
    verdict matches the declaration, so an analysis regression that
    silently starts rejecting (or admitting) a kernel fails the pillar.
    """
    from repro.kernelc.analysis import analyze_vectorizable
    from repro.kernelc.compile import resident_kinds_of, vector_fn_names

    apps = list(apps) if apps is not None else [cls() for cls in ALL_APPS]
    report = Report("compiled vs interpreter", tol=tol)
    for app in apps:
        base = app.generate(n_bytes=data_bytes, seed=seed)
        data_i, data_c = _clone_app_data(base), _clone_app_data(base)
        ctx_i, ctx_c = app.make_ir_context(data_i), app.make_ir_context(data_c)
        kernel = app.kernel()
        verdict = analyze_vectorizable(
            kernel,
            vector_fns=vector_fn_names(ctx_c.device_fns),
            resident_kinds=resident_kinds_of(ctx_c.resident),
        )
        problems: list[str] = []
        if verdict.ok != app.compiled_expected:
            problems.append(
                "analysis admitted a kernel declared fallback"
                if verdict.ok
                else "analysis rejected a kernel declared compilable"
            )
        if verdict.ok:
            problems += compiled_problems(
                kernel, ctx_i, ctx_c,
                lambda: app.make_ir_context(_clone_app_data(base)),
                app.n_units(base), app.n_passes,
            )
            ok_out, detail = _outputs_close(
                app, app.ir_output(data_i, ctx_i),
                app.ir_output(data_c, ctx_c), tol,
            )
            if not ok_out:
                problems.append(detail)
        report.cells.append(Cell(
            app.name, kernel.name, not problems,
            "; ".join(problems + list(verdict.reasons)),
            "compiled" if verdict.ok else "fallback",
        ))
    return report


# --------------------------------------------------------------------------
# analytic-vs-des mode: the closed-form predictor against the simulator
# --------------------------------------------------------------------------

#: relative tolerance for predictor-vs-DES totals. The predictor's bound
#: family is exact (machine epsilon) on almost every cell; the tolerance
#: absorbs the few cells where a bound is a certified *lower* envelope of
#: a DES artifact (e.g. kmeans gpu_double drain interleaving, ~1.3e-2).
ANALYTIC_TOL = 5e-2


def _rel_err(predicted: float, simulated: float) -> float:
    return abs(predicted - simulated) / max(abs(simulated), 1e-300)


def run_analytic_differential(
    data_bytes: int = 2 * MiB,
    seed: int = 7,
    config: Optional[EngineConfig] = None,
    apps: Optional[Iterable] = None,
    tol: float = ANALYTIC_TOL,
    fuzz_iterations: int = 8,
) -> Report:
    """Validate the closed-form predictor against the DES.

    Two phases. The *clean matrix* prices every app on every predictable
    engine at the base geometry and runs the same configuration through
    the engine with the fast path disabled (a true event-by-event
    simulation); each cell's relative error must stay within ``tol``.
    The *fuzz loop* then draws ``fuzz_iterations`` random geometries
    (chunk bytes, block count, ring depth) for the pipelined engines
    (``bigkernel``/``gpu_double`` — the ones whose totals actually move
    with geometry) from ``random.Random(f"analytic-{seed}")`` and holds
    them to the same tolerance.

    Runs are non-functional (``functional=False``): the predictor prices
    the timeline only, so the kernels need not execute.
    """
    import random

    from repro.analytic import PREDICTABLE_ENGINES, predict_run, resolve_engine

    config = config or EngineConfig(chunk_bytes=512 * 1024)
    config = config.with_(functional=False, fastpath=False)
    apps = list(apps) if apps is not None else [cls() for cls in ALL_APPS]
    datasets = {
        app.name: app.generate(n_bytes=data_bytes, seed=seed) for app in apps
    }

    report = Report("analytic vs des", tol=tol)

    def check(app, engine_name, cfg, mode, detail=""):
        data = datasets[app.name]
        predicted = predict_run(app, data, cfg, engine=engine_name).sim_time
        simulated = resolve_engine(engine_name).run(app, data, cfg).sim_time
        err = _rel_err(predicted, simulated)
        detail = f"predicted {predicted!r} vs simulated {simulated!r}" + (
            f" at {detail}" if detail else ""
        )
        report.cells.append(
            Cell(app.name, engine_name, err <= tol, detail, mode, err)
        )

    for app in apps:
        for engine_name in PREDICTABLE_ENGINES:
            check(app, engine_name, config, "clean")

    rng = random.Random(f"analytic-{seed}")
    for _ in range(fuzz_iterations):
        app = rng.choice(apps)
        engine_name = rng.choice(["bigkernel", "gpu_double"])
        cfg = config.with_(
            chunk_bytes=rng.choice([64, 128, 256, 512, 1024, 2048]) * 1024,
            num_blocks=rng.choice([4, 8, 16, 32]),
            ring_depth=rng.randint(2, 6),
            compute_threads=32 * rng.randint(1, 16),
        )
        check(app, engine_name, cfg, "fuzz", detail=(
            f"cb={cfg.chunk_bytes // 1024}K nb={cfg.num_blocks} "
            f"rd={cfg.ring_depth} ct={cfg.compute_threads}"
        ))
    return report


# --------------------------------------------------------------------------
# multi-gpu mode: the sharded scale-out engine vs the oracle, per shard
# --------------------------------------------------------------------------

#: tolerance for dedicated-link cells at the clean matrix's standard
#: geometry: those share the exact per-shard bound family of the
#: fastpath, so anything past noise is model drift.
MULTIGPU_DEDICATED_TOL = 5e-3

#: tolerance for shared-root-complex cells and for fuzzed corner
#: fabrics of either link type. The shard model is a steady-state bound
#: family: with only 2-3 chunks per shard, pipeline fill/drain and
#: write-back interleaving on the shared port move the DES up to ~9%
#: off the bounds (worst observed 8.9e-2, kmeans at 512 KiB / 4 shared
#: GPUs / 64 KiB chunks — deterministic across data seeds and ring
#: depths). Typical cells sit well under 2%.
MULTIGPU_SHARED_TOL = 1e-1


def multigpu_cell(app, data, config, engine, reference, tol: float,
                  mode: str = "clean") -> tuple[Cell, int]:
    """Grade one sharded run by the multigpu pillar's three laws.

    * the merged output matches ``reference`` (the serial oracle's
      output) bit-for-bit — sharding plus the cross-GPU merge is
      invisible to the result;
    * every shard's trace passes the full pipeline invariant battery and
      the per-shard byte ledgers sum to the run's counters
      (:func:`repro.verify.invariants.audit_sharded_run`);
    * the closed-form shard predictor prices the run within ``tol``.

    Returns the cell and the number of shard traces audited.
    """
    from repro.analytic import predict_run
    from repro.verify.invariants import audit_sharded_run

    res = engine.run(app, data, config)
    _, detail = compare_outputs(app, reference, res.output)
    problems = [detail] if detail else []
    problems += audit_sharded_run(res)
    err = _rel_err(predict_run(app, data, config, engine).sim_time,
                   res.sim_time)
    if err > tol:
        problems.append(f"analytic rel err {err:.2e} > {tol:g}")
    cell = Cell(app.name, engine.name, not problems, "; ".join(problems),
                mode, err)
    return cell, len(res.shard_details or ())


def run_multigpu_differential(
    data_bytes: int = 2 * MiB,
    seed: int = 7,
    config: Optional[EngineConfig] = None,
    apps: Optional[Iterable] = None,
    gpu_counts: Iterable[int] = (1, 2, 4),
    tol: float = MULTIGPU_SHARED_TOL,
    fuzz_iterations: int = 4,
) -> Report:
    """Validate the sharded scale-out engine against the serial oracle.

    Two phases, mirroring the analytic suite, each cell graded by
    :func:`multigpu_cell`. The *clean matrix* runs every app across
    ``gpu_counts`` with dedicated links and (for K>1) a shared root
    complex, always through the true DES: dedicated links are priced
    within :data:`MULTIGPU_DEDICATED_TOL` (exact bound family), shared
    links within ``tol`` (default :data:`MULTIGPU_SHARED_TOL`, sized for
    the fill/drain corner geometries the steady-state bounds cannot
    capture).

    The *fuzz loop* then draws ``fuzz_iterations`` random fabrics (GPU
    count, link topology, NUMA placement, chunk geometry) through
    :func:`repro.verify.fuzz.draw_multigpu_case`, each seeded
    ``random.Random(f"multigpu-{seed}-{case}")`` so any failure is
    reproducible from (seed, case) alone. Fuzzed fabrics are corner
    geometries by design (2-3 chunks per shard, numa-blind 8-GPU
    splits), so both link types are held to ``tol``.
    """
    import random

    from repro.engines.multigpu import MultiGpuBigKernelEngine
    from repro.verify.fuzz import draw_multigpu_case

    config = config or EngineConfig(chunk_bytes=512 * 1024)
    # shard traces only exist on the true DES; totals are fastpath-identical
    config = config.with_(fastpath=False)
    apps = list(apps) if apps is not None else [cls() for cls in ALL_APPS]
    oracle = CpuSerialEngine()
    report = Report(f"multigpu vs {ORACLE}", counts={"shard traces": 0})

    def add(graded) -> Cell:
        cell, shards = graded
        report.cells.append(cell)
        report.counts["shard traces"] += shards
        return cell

    for app in apps:
        data = app.generate(n_bytes=data_bytes, seed=seed)
        ref = oracle.run(app, data, config).output
        for n in gpu_counts:
            for shared in (False,) if n == 1 else (False, True):
                engine = MultiGpuBigKernelEngine(n, shared_link=shared)
                add(multigpu_cell(app, data, config, engine, ref,
                                  tol if shared else MULTIGPU_DEDICATED_TOL))

    for case in range(fuzz_iterations):
        app, data, engine, cfg = draw_multigpu_case(
            random.Random(f"multigpu-{seed}-{case}")
        )
        ref = oracle.run(app, data, cfg).output
        cell = add(multigpu_cell(app, data, cfg, engine, ref, tol, "fuzz"))
        cell.detail += f" [reproduce: multigpu-{seed}-{case}]"
    return report


# --------------------------------------------------------------------------
# serve mode: the multi-tenant serving layer vs one-shot oracle runs
# --------------------------------------------------------------------------


def run_serve_differential(
    data_bytes: int = 512 * 1024,
    seed: int = 7,
    duration: float = 2.0,
    rate: float = 25.0,
) -> Report:
    """Serve a short seeded trace and bit-compare every response.

    A repeat-heavy multi-tenant trace goes through a live
    :class:`~repro.serve.Server` with the full amortization stack engaged
    (run cache, batch coalescing, shared datasets, engine memos) and a
    one-slot dataset pool, so jobs also run on datasets that dropped
    their arrays into the server's store and restore them; then
    *every* completed response — served, coalesced, or cached alike — is
    compared against a fresh one-shot oracle (new app, newly generated
    dataset, new engine, no caches) for that exact job. ``sim_time`` must
    be exactly equal and outputs bit-equal with zero tolerance. The queue
    is sized above the trace so nothing is rejected: in this pillar a
    rejection or a failure is itself a mismatch. So is a clean phase
    that never short-circuited (zero cached and zero coalesced
    responses): a serving layer that never amortizes is also a bug.

    A second, *overloaded* phase then replays the same trace compressed
    into a burst with every tenant carrying a tight SLO (derived from the
    first phase's measured mean service time) through the EDF + admission
    + adaptive-batching stack: completed responses must still bit-equal
    the same oracles, while shed and predictively rejected responses must
    be properly *typed* terminals (a
    :class:`~repro.errors.SloViolationError` on the response) and the
    accounting identities must close exactly — the SLO machinery may drop
    work, but never silently and never incorrectly.

    Both phases run on one deterministic step timer
    (:class:`~repro.serve.StepTimer`), so their service times, the SLO
    derived from them and every admission decision repeat from run to
    run, and so do the counts this pillar prints.
    """
    from repro.bench.sweep import RunCache
    from repro.serve import (
        ServeConfig,
        Server,
        StepTimer,
        TraceSpec,
        generate_trace,
        judge,
        oneshot_oracle,
        scale_trace,
        serve_trace,
        with_slo,
    )

    spec = TraceSpec(
        seed=seed, duration=duration, rate=rate, data_bytes=data_bytes
    )
    trace = generate_trace(spec)
    config = ServeConfig(max_queue=len(trace) + 1, dataset_pool=1)
    timer = StepTimer()
    # memory-only cache: the pillar must be hermetic, not a disk-state test
    with Server(config, cache=RunCache(disk=None)) as server:
        outcome = serve_trace(server, trace, timer=timer)

    jobs = {req.req_id: (req.tenant, req.job) for req in trace}
    oracle = functools.cache(oneshot_oracle)
    m = outcome.metrics
    report = Report(
        "serve vs one-shot",
        counts={
            "served": m.served,
            "coalesced": m.coalesced,
            "cached": m.cached,
            "engine runs": m.engine_runs,
            "slo shed": 0,
            "slo rejected": 0,
        },
    )

    def grade(resp, phase: str) -> None:
        tenant, job = jobs[resp.req_id]
        if phase == "open" and resp.status in ("rejected", "shed"):
            # the open phase is sized so nothing is rejected or dropped
            problem = resp.error or f"request {resp.status}"
        else:
            if resp.status in ("rejected", "shed"):
                report.counts[f"slo {resp.status}"] += 1
            problem = judge(job, resp, oracle)
        detail = ""
        if problem is not None:
            detail = f"req {resp.req_id} [{tenant}] {phase}:{resp.status}: {problem}"
        report.cells.append(
            Cell(job.dataset.app, job.engine.name, problem is None, detail)
        )

    for resp in outcome.responses:
        grade(resp, "open")
    if not (m.cached or m.coalesced):
        report.cells.append(
            Cell("*", "*", False,
                 "open phase never short-circuited: 0 cached and 0 "
                 "coalesced responses")
        )

    # --- phase 2: burst overload with tight SLOs through EDF + admission ---
    mean_service = outcome.makespan / max(m.completed, 1)
    slo_ms = 1000.0 * 5.0 * mean_service
    slo_config = ServeConfig(
        max_queue=max(8, len(trace) // 4),
        scheduling="edf",
        adaptive_batch=True,
    )
    with Server(
        slo_config,
        tenants=with_slo(spec.tenants, slo_ms),
        cache=RunCache(disk=None),
    ) as server:
        slo_outcome = serve_trace(server, scale_trace(trace, 1e-3), timer=timer)
    report.counts["engine runs"] += slo_outcome.metrics.engine_runs
    for resp in slo_outcome.responses:
        grade(resp, "slo")

    s = slo_outcome.metrics
    if s.submitted != s.admitted + s.rejected or s.admitted != (
        s.completed + s.failed + s.shed
    ):
        report.cells.append(Cell(
            "*", "*", False,
            f"slo accounting identity violated: submitted={s.submitted} "
            f"admitted={s.admitted} rejected={s.rejected} "
            f"completed={s.completed} failed={s.failed} shed={s.shed}",
        ))
    return report
