"""Seeded fuzz harness end-to-end: random IR programs through the compiler
round trip, random pipeline schedules through the invariant checkers.

Iteration counts are bounded for CI; the harness itself is
Hypothesis-free (plain ``random.Random``), so these run even where
Hypothesis is unavailable.
"""

import random

import pytest

from repro.errors import VerificationError
from repro.kernelc.validate import validate_kernel
from repro.runtime.pipeline import PipelineConfig
from repro.verify.fuzz import (
    FuzzFailure,
    check_kernel_roundtrip,
    check_pipeline_case,
    check_uvm_differential,
    random_chunk_schedule,
    random_kernel,
    random_pipeline_config,
    run_fuzz,
)

CI_ITERATIONS = 12


def test_fuzz_loop_end_to_end():
    report = run_fuzz(
        ir_iterations=CI_ITERATIONS,
        pipeline_iterations=CI_ITERATIONS,
        seed=42,
    )
    assert report.ok, report.summary()
    assert report.ir_cases == report.pipeline_cases == CI_ITERATIONS
    # the grammar is sliceable-by-construction most of the time; make sure
    # the sliced path (not just the fallback) is actually exercised
    assert report.ir_sliced > 0
    assert f"seed=42" in report.summary()


def test_fuzz_is_deterministic():
    a = run_fuzz(ir_iterations=5, pipeline_iterations=5, seed=7)
    b = run_fuzz(ir_iterations=5, pipeline_iterations=5, seed=7)
    assert a.summary() == b.summary()
    assert a.ir_sliced == b.ir_sliced


def test_random_kernels_are_valid():
    for case in range(10):
        rng = random.Random(f"valid-{case}")
        validate_kernel(random_kernel(rng))


def test_roundtrip_single_case():
    rng = random.Random("single")
    kernel = random_kernel(rng)
    check_kernel_roundtrip(kernel, data_seed=5)  # raises on divergence


def test_random_pipeline_configs_are_legal():
    for case in range(10):
        rng = random.Random(f"cfg-{case}")
        cfg = random_pipeline_config(rng)
        assert isinstance(cfg, PipelineConfig) and cfg.ring_depth >= 2
        chunks = random_chunk_schedule(rng)
        assert chunks and all(c.xfer_bytes > 0 for c in chunks)


def test_pipeline_single_case():
    check_pipeline_case(random.Random("pipe"))  # raises on violation


def test_failure_record_carries_reproducer():
    f = FuzzFailure("ir", seed=9, case=3, message="boom", program="kernel x")
    s = str(f)
    assert "seed=9" in s and "case=3" in s and "kernel x" in s


def test_report_raise_if_failed():
    report = run_fuzz(ir_iterations=1, pipeline_iterations=0, seed=1)
    report.failures.append(FuzzFailure("ir", 1, 0, "synthetic"))
    with pytest.raises(VerificationError, match="synthetic"):
        report.raise_if_failed()


def test_uvm_case_gives_the_engine_its_own_dataset(monkeypatch):
    """The serial oracle and the paged engine's functional pass read two
    datasets of the drawn recipe, so nothing the oracle leaves on its
    dataset can reach the pass it checks."""
    from repro.apps.base import Application
    from repro.engines import base

    seen = []
    reference, run_passes = Application.reference, base._run_passes

    def recorded_reference(self, data):
        seen.append(data)
        return reference(self, data)

    def recorded_passes(app, data, units_per_chunk):
        seen.append(data)
        return run_passes(app, data, units_per_chunk)

    monkeypatch.setattr(Application, "reference", recorded_reference)
    monkeypatch.setattr(base, "_run_passes", recorded_passes)
    check_uvm_differential(random.Random(3))
    oracle, engine = seen
    assert oracle is not engine
    assert oracle.meta["datagen"] == engine.meta["datagen"]


def test_uvm_case_records_a_failed_matrix(monkeypatch):
    """A UVM case runs as a graded two-engine matrix: a timeline that
    breaks byte conservation raises the matrix's ValidationFailure, which
    the fuzz loop records like any other failed law."""
    from repro.engines import GpuUvmEngine

    run = GpuUvmEngine.run

    def lost_byte(self, app, data, config):
        res = run(self, app, data, config)
        res.metrics.bytes_h2d -= 1
        return res

    monkeypatch.setattr(GpuUvmEngine, "run", lost_byte)
    report = run_fuzz(ir_iterations=0, pipeline_iterations=0, seed=3,
                      uvm_iterations=2)
    assert [(f.kind, f.case) for f in report.failures] == [("uvm", 0), ("uvm", 1)]
    assert all("violates pipeline invariants" in f.message
               for f in report.failures)
