"""Invariant-checking & differential verification (the safety net).

Nine pillars, listed once in :data:`repro.verify.runner.PILLARS` (four
run by default, five opt-in):

* :mod:`repro.verify.invariants` — physical-law checkers over pipeline
  timelines (capacity, causality, backpressure, byte conservation);
  the ``invariants`` pillar runs them over BigKernel timelines;
* :mod:`repro.verify.differential` — :func:`grade`, the one grader of
  an engine cell (its output equal to the reference cell's under the
  app's ``outputs_equal``, its timeline through the invariant checkers),
  which :func:`repro.bench.harness.run_matrix` applies to every cell;
  the ``differential`` and ``uvm`` pillars are graded matrices of every
  engine vs the serial CPU oracle. Plus the opt-in oracle pillars:
  ``fastpath`` (the analytic steady-state pipeline vs the DES, totals
  exactly equal), ``compiled`` (the vectorized kernel backend vs the
  interpreter), ``analytic`` (the closed-form predictor vs the DES at 5%
  relative tolerance), ``multigpu`` (the sharded scale-out engine vs the
  serial oracle, every shard's trace invariant-checked, analytic shard
  predictions within tolerance) and ``serve`` (every response of a live
  multi-tenant server bit-equal to a fresh one-shot oracle). Each
  reports a :class:`Report` of :class:`Cell` s;
* :mod:`repro.verify.fuzz` — seeded random IR programs, pipeline
  schedules and UVM paging configurations through the compiler round
  trip, the compiled backend and the invariant checkers.

``python -m repro verify`` (see :mod:`repro.verify.runner`) runs the
suites and exits nonzero on any violation. Opt-in hooks:
``run_pipeline(..., verify=True)``, ``bigkernel_launch(..., verify=True)``
and ``BenchSettings(check_invariants=True)``.

The registry names (:mod:`repro.verify.runner`, which imports nothing
heavy) bind at import; the checker modules' names resolve lazily on
first access. The CLI imports the registry to build its flags, and
``repro --help`` must not pay for the engines behind the pillars.
"""

from importlib import import_module

from repro.verify.runner import PILLARS, Pillar, VerifySummary, run_verify

_EXPORTS = {
    "differential": (
        "Cell",
        "Report",
        "grade",
        "graded_matrix",
        "run_analytic_differential",
        "run_compiled_differential",
        "run_fastpath_differential",
        "run_multigpu_differential",
        "run_serve_differential",
    ),
    "fuzz": ("FuzzFailure", "FuzzReport", "run_fuzz"),
    "invariants": (
        "Violation",
        "InvariantReport",
        "check_track_capacity",
        "check_pcie_serialization",
        "check_flag_after_data",
        "check_compute_after_transfer",
        "check_stage_order",
        "check_backpressure",
        "check_byte_conservation",
        "audit_sharded_run",
        "verify_pipeline_trace",
        "verify_run",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["PILLARS", "Pillar", "VerifySummary", "run_verify", *_HOME]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
