"""Orchestration for ``python -m repro verify``: the verification pillars
in one pass/fail sweep.

:data:`PILLARS` lists every pillar once, in run order; ``run_verify``
walks it and the CLI builds one ``--<name>`` flag per opt-in entry.

1. **invariants** — run BigKernel (aggregate mode) on every app and
   invariant-check each timeline; also one per-block high-fidelity run.
2. **differential** — every engine vs the serial oracle on every app.
3. **uvm** — the unified-memory engine family
   (``gpu_uvm``/``uvm_readahead``/``uvm_learned``) vs the serial oracle on
   every app, each timeline invariant-checked.
4. **fuzz** — seeded random IR programs, pipeline schedules, and
   randomized UVM paging configurations.
5. **fastpath** (opt-in) — every (app, engine) cell run with the analytic
   steady-state pipeline vs with the DES forced; totals must agree within
   1e-9 (see ``docs/performance.md``).
6. **compiled** (opt-in) — every app's kernel run through the vectorized
   NumPy backend vs the tree-walking interpreter: outputs at 1e-9 (rtol
   0), InterpStats counters and addr-gen address streams exact, and
   analysis verdicts matching each app's declared expectation.
7. **analytic** (opt-in) — the closed-form performance predictor
   (:mod:`repro.analytic`) vs the DES: every app on every predictable
   engine at the base geometry, plus fuzzed chunk/ring geometries, each
   cell within 5% relative error (most are exact).
8. **multigpu** (opt-in) — the sharded scale-out engine vs the serial
   oracle across GPU counts and link topologies: merged outputs
   bit-equal, every shard's DES trace invariant-checked with byte ledgers
   reconciled, analytic shard predictions within tolerance, plus fuzzed
   random fabrics (see ``docs/verification.md``).
9. **serve** (opt-in) — a seeded multi-tenant trace through a live server
   with the full amortization stack (run cache, coalescing, shared
   datasets); every response — served, coalesced or cached — must
   bit-equal (rtol 0, exact ``sim_time``) a fresh one-shot oracle run of
   the same job (see ``docs/serving.md``).

``quick`` shrinks the datasets and iteration counts to CI scale.

This module is imported by ``repro --help`` (the CLI builds the verify
flags from :data:`PILLARS`), so it imports nothing heavy at module level:
each pillar's ``run`` imports its engines and checkers when called.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from repro.units import MiB


class Pillar(NamedTuple):
    """One verification pillar.

    ``run(quick=, seed=, data_bytes=, fuzz_n=)`` runs the pillar at the
    sweep's scale and returns its report: anything with ``ok`` and
    ``summary()`` — a :class:`~repro.verify.differential.Report` for
    every pillar but fuzz.
    """

    name: str
    #: run only when named in ``run_verify(opt_in=)`` (CLI ``--<name>``)
    opt_in: bool
    #: what the pillar checks; the narration line, and the opt-in flag's
    #: help as "also run <help>"
    help: str
    run: Callable


def _config(data_bytes: int):
    from repro.engines import EngineConfig

    return EngineConfig(chunk_bytes=max(256 * 1024, data_bytes // 8))


def _run_invariants(quick, seed, data_bytes, fuzz_n):
    from repro.apps import ALL_APPS
    from repro.engines import BigKernelEngine
    from repro.runtime.pipeline import run_pipeline_per_block
    from repro.verify.differential import Cell, Report
    from repro.verify.invariants import verify_pipeline_trace, verify_run

    config = _config(data_bytes)
    # the invariant checkers consume full timelines, which the analytic
    # fast path deliberately skips: pin the DES
    traced_config = config.with_(fastpath=False)
    engine = BigKernelEngine()
    report = Report("invariants")

    def add(app, engine_name, mode, inv):
        report.cells.append(
            Cell(app.name, engine_name, inv.ok,
                 "" if inv.ok else inv.summary(), mode)
        )

    for cls in ALL_APPS:
        app = cls()
        data = app.generate(n_bytes=data_bytes, seed=seed)
        res = engine.run(app, data, traced_config)
        add(app, engine.name, "aggregate", verify_run(res, traced_config))

    # one high-fidelity per-block pipeline run
    app = ALL_APPS[0]()
    data = app.generate(n_bytes=data_bytes, seed=seed)
    sched = engine._schedule(app, data, config, workers_override=1)
    n_blocks = min(4, max(1, sched.active_blocks))
    block_chunks = [list(sched.chunks) for _ in range(n_blocks)]
    result = run_pipeline_per_block(
        config.hardware, block_chunks, sched.pipe_cfg, cpu_threads=4
    )
    add(app, "pipeline", "per-block", verify_pipeline_trace(
        result.trace,
        gpu_capacity=2 * n_blocks,
        cpu_workers=4,
        ring_depth=sched.pipe_cfg.ring_depth,
        bytes_h2d=result.bytes_h2d,
        bytes_d2h=result.bytes_d2h,
    ))
    return report


def _run_differential(quick, seed, data_bytes, fuzz_n):
    from repro.verify.differential import run_differential

    return run_differential(
        data_bytes=data_bytes, seed=seed, config=_config(data_bytes)
    )


def _run_uvm(quick, seed, data_bytes, fuzz_n):
    from repro.engines import UVM_ENGINES, CpuSerialEngine
    from repro.verify.differential import run_differential

    uvm_engines = [cls() for cls in UVM_ENGINES]
    report = run_differential(
        data_bytes=data_bytes, seed=seed, config=_config(data_bytes),
        engines=[CpuSerialEngine()] + uvm_engines,
        traced_engines=tuple(e.name for e in uvm_engines),
    )
    report.title = "uvm " + report.title
    return report


def _run_fuzz(quick, seed, data_bytes, fuzz_n):
    from repro.verify.fuzz import run_fuzz

    return run_fuzz(
        ir_iterations=fuzz_n, pipeline_iterations=fuzz_n,
        uvm_iterations=4 if quick else 12, seed=seed,
    )


def _run_fastpath(quick, seed, data_bytes, fuzz_n):
    from repro.verify.differential import run_fastpath_differential

    return run_fastpath_differential(
        data_bytes=data_bytes, seed=seed, config=_config(data_bytes)
    )


def _run_compiled(quick, seed, data_bytes, fuzz_n):
    from repro.verify.differential import run_compiled_differential

    return run_compiled_differential(data_bytes=data_bytes, seed=seed)


def _run_analytic(quick, seed, data_bytes, fuzz_n):
    from repro.verify.differential import run_analytic_differential

    return run_analytic_differential(
        data_bytes=data_bytes, seed=seed, config=_config(data_bytes),
        fuzz_iterations=6 if quick else 12,
    )


def _run_multigpu(quick, seed, data_bytes, fuzz_n):
    from repro.verify.differential import run_multigpu_differential

    return run_multigpu_differential(
        data_bytes=data_bytes, seed=seed, config=_config(data_bytes),
        gpu_counts=(1, 2) if quick else (1, 2, 4),
        fuzz_iterations=2 if quick else 5,
    )


def _run_serve(quick, seed, data_bytes, fuzz_n):
    from repro.verify.differential import run_serve_differential

    return run_serve_differential(
        data_bytes=min(data_bytes, 1 * MiB), seed=seed,
        duration=1.5 if quick else 3.0,
    )


PILLARS = (
    Pillar("invariants", False,
           "BigKernel timelines over every app plus one per-block run, "
           "through every invariant checker", _run_invariants),
    Pillar("differential", False,
           "every engine vs the cpu_serial oracle on every app",
           _run_differential),
    Pillar("uvm", False,
           "the paging engines vs the cpu_serial oracle, timelines "
           "invariant-checked", _run_uvm),
    Pillar("fuzz", False,
           "seeded random IR programs, pipeline schedules and UVM paging "
           "configurations", _run_fuzz),
    Pillar("fastpath", True,
           "the fastpath-vs-des differential (analytic pipeline against "
           "the simulator)", _run_fastpath),
    Pillar("compiled", True,
           "the compiled-vs-interpreter differential (vectorized kernel "
           "backend against the tree-walking oracle)", _run_compiled),
    Pillar("analytic", True,
           "the closed-form-predictor-vs-des differential (repro.analytic "
           "against the simulator, 5% relative tolerance)", _run_analytic),
    Pillar("multigpu", True,
           "the sharded scale-out differential (multi-GPU engine vs the "
           "serial oracle, per-shard trace invariants, analytic shard "
           "model, fuzzed fabrics)", _run_multigpu),
    Pillar("serve", True,
           "the serve differential (a multi-tenant trace through a live "
           "server; every response bit-equal to a fresh one-shot oracle)",
           _run_serve),
)


class VerifySummary(dict):
    """Combined outcome of one verification sweep: pillar name -> report."""

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.values())

    def summary(self) -> str:
        lines = [r.summary() for r in self.values()]
        lines.append("verify: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def run_verify(
    quick: bool = False,
    seed: int = 7,
    data_bytes: Optional[int] = None,
    fuzz_iterations: Optional[int] = None,
    opt_in: tuple = (),
    emit: Callable[[str], None] = print,
) -> VerifySummary:
    """Run every default pillar plus the opt-in pillars named in
    ``opt_in``, in :data:`PILLARS` order; ``emit`` narrates progress."""
    known = {p.name for p in PILLARS if p.opt_in}
    unknown = set(opt_in) - known
    if unknown:
        raise ValueError(
            f"unknown opt-in pillar(s) {sorted(unknown)}; "
            f"choose from {sorted(known)}"
        )
    data_bytes = data_bytes or (1 * MiB if quick else 4 * MiB)
    fuzz_n = fuzz_iterations if fuzz_iterations is not None else (8 if quick else 30)
    chosen = [p for p in PILLARS if not p.opt_in or p.name in opt_in]
    summary = VerifySummary()
    for i, pillar in enumerate(chosen, 1):
        emit(f"[{i}/{len(chosen)}] {pillar.name}: {pillar.help}")
        summary[pillar.name] = pillar.run(
            quick=quick, seed=seed, data_bytes=data_bytes, fuzz_n=fuzz_n
        )
    return summary
