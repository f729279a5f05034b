"""A finished DES run is freed by reference counting alone.

The pipeline's stages and UVM's kernel and migrations are chains of
callbacks that hold the run's trace and chunks while it runs. Once the
heap drains, nothing they leave behind forms a reference cycle around
them, so dropping a run's result frees its ``TraceRecorder`` and its
``ChunkWork`` objects at once, with the cyclic collector off. A run whose
trace waits for the collector holds every interval of it until the next
collection, and a sweep of many runs piles them up. Nor does a run leave
any other cycle behind: the collector finds nothing after it.
"""

import gc
import weakref

import pytest

import repro.engines.uvm as uvm
from repro.apps import get_app
from repro.engines import BigKernelEngine, EngineConfig, GpuUvmEngine, UvmSpec
from repro.hw.spec import DEFAULT_HARDWARE
from repro.runtime.pipeline import ChunkWork, PipelineConfig, run_pipeline
from repro.sim.trace import TraceRecorder
from repro.units import KiB, MiB


@pytest.fixture
def no_cyclic_gc():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _pipeline_run():
    """A mapped-writes run on the DES: all six stages, both directions."""
    chunks = [
        ChunkWork(
            index=i,
            t_addr_gen=2e-5,
            addr_bytes_d2h=8 * KiB if i % 2 else 0,
            t_assembly=1e-4,
            xfer_bytes=64 * KiB,
            t_compute=5e-5,
            write_bytes=16 * KiB if i % 3 == 0 else 0,
            t_scatter=3e-5 if i % 3 == 0 else 0.0,
        )
        for i in range(8)
    ]
    res = run_pipeline(
        DEFAULT_HARDWARE, chunks, PipelineConfig(ring_depth=2), fastpath=False
    )
    assert res.trace is not None and len(res.trace)
    return res, [weakref.ref(res.trace)] + [weakref.ref(c) for c in chunks]


def test_pipeline_run_frees_its_trace_and_chunks(no_cyclic_gc):
    res, refs = _pipeline_run()
    assert refs[0]() is res.trace
    del res
    assert [ref() for ref in refs] == [None] * len(refs)


def test_uvm_run_frees_its_trace(no_cyclic_gc, monkeypatch):
    made = []

    class Recorder(TraceRecorder):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(weakref.ref(self))

    monkeypatch.setattr(uvm, "TraceRecorder", Recorder)
    app = get_app("kmeans")
    data = app.generate(n_bytes=1 * MiB, seed=7)
    res = GpuUvmEngine(UvmSpec(page_bytes=4 * KiB, batch_pages=4)).run(
        app, data, EngineConfig(chunk_bytes=64 * KiB, fastpath=False, functional=False)
    )
    assert len(made) == 1 and res.trace
    del res
    assert made[0]() is None


#: DES runs that must leave nothing for the collector: ``(engine, app)``
LEAK_CASES = {
    "bigkernel-kmeans": (BigKernelEngine, "kmeans"),
    "bigkernel-wordcount": (BigKernelEngine, "wordcount"),
    "gpu_uvm-kmeans": (
        lambda: GpuUvmEngine(UvmSpec(page_bytes=4 * KiB, batch_pages=4)),
        "kmeans",
    ),
}


@pytest.mark.parametrize("case", sorted(LEAK_CASES))
def test_des_run_leaves_no_reference_cycle(no_cyclic_gc, case):
    """The environment holds no callable bound to itself, and the
    transfer stage's flag drops the last flag DMA's request (which holds
    the flag) once its chunk has landed. A first run builds the engine's
    schedule, so the kernel analysis it memoizes once per kernel is not
    counted; the second run simulates again."""
    make, name = LEAK_CASES[case]
    engine, app = make(), get_app(name)
    data = app.generate(n_bytes=1 * MiB, seed=7)
    config = EngineConfig(chunk_bytes=64 * KiB, fastpath=False)
    engine.run(app, data, config)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        res = engine.run(app, data, config)
        assert res.trace
        del res
        gc.collect()
        left = sorted(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left == []
