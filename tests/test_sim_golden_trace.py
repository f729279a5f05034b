"""Golden DES timelines: one SHA-256 per run over its ordered trace.

The end-to-end benchmark's ``sim_digest`` covers only the ``sim_time`` of
clean sweep runs, and the calibration locks are 1e-9 bands, so neither
pins the order in which same-time events run. These digests do. Each one
covers a run's ordered interval stream (track, label, ``repr`` of start
and end, sorted meta) and the run's final clock: a DES change that swaps
two same-time events, or moves any time by one ulp, fails here.

The cases cover every user of the DES: the aggregate pipeline on
BigKernel and double buffering (Word Count, which writes nothing, and
K-means, which writes), the per-block pipeline, the three unified-memory
engines, a two-GPU shared-link sharded run, and every fault primitive
(link degradation, retried and fatal DMA errors, assembly stalls, and
pinned-memory denial with both its ring shrink and its double-buffer
fallback).

A digest may change only with a deliberate change to the timing model.
To print the current table::

    PYTHONPATH=src python tests/test_sim_golden_trace.py
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import pytest

from repro.apps import get_app
from repro.engines import (
    BigKernelEngine,
    EngineConfig,
    GpuDoubleBufferEngine,
    GpuUvmEngine,
    MultiGpuBigKernelEngine,
    UvmLearnedEngine,
    UvmReadaheadEngine,
    UvmSpec,
)
from repro.errors import DmaFaultError
from repro.faults import FaultPlan
from repro.hw.spec import DEFAULT_HARDWARE
from repro.runtime.pipeline import (
    ChunkWork,
    PipelineConfig,
    run_pipeline,
    run_pipeline_per_block,
)
from repro.sim.core import Environment
from repro.sim.trace import TraceRecorder
from repro.units import KiB, MiB

SEED = 7
N_BYTES = 1 * MiB
CHUNK = 64 * KiB
DES = EngineConfig(chunk_bytes=CHUNK, fastpath=False, functional=False)
#: 4 KiB pages in 4-page fault groups: 64 fault groups per pass at 1 MiB
SMALL_PAGES = UvmSpec(page_bytes=4 * KiB, batch_pages=4)


def trace_digest(intervals, clock) -> str:
    """SHA-256 over ``intervals`` in recorded order, then ``clock``."""
    digest = hashlib.sha256()
    for iv in intervals:
        row = (iv.track, iv.label, repr(iv.start), repr(iv.end),
               sorted(iv.meta.items()))
        digest.update(repr(row).encode())
    digest.update(repr(clock).encode())
    return digest.hexdigest()


@lru_cache(maxsize=None)
def dataset(app_name: str):
    app = get_app(app_name)
    return app, app.generate(n_bytes=N_BYTES, seed=SEED)


def engine_run(make_engine, app_name: str, plan=None, **config):
    def run():
        app, data = dataset(app_name)
        res = make_engine().run(app, data, DES.with_(faults=plan, **config))
        return [(res.engine, tuple(res.trace))], res.sim_time
    return run


def sharded_run():
    app, data = dataset("wordcount")
    res = MultiGpuBigKernelEngine(2, shared_link=True).run(app, data, DES)
    shards = [(d["shard"], tuple(d["trace"])) for d in res.shard_details]
    return shards, res.sim_time


def synthetic_chunks(n: int, block: int = 0) -> list[ChunkWork]:
    """Heterogeneous chunks with address traffic and mapped writes, so every
    stage process and both DMA directions contend at equal times."""
    return [
        ChunkWork(
            index=i,
            t_addr_gen=2e-5 * (1 + (i + block) % 3),
            addr_bytes_d2h=(8 * KiB) if (i + block) % 2 else 0,
            t_assembly=1e-4 * (1 + (i * 7 + block) % 4),
            xfer_bytes=(64 + 32 * ((i + block) % 3)) * KiB,
            t_compute=5e-5 * (1 + (i * 5 + block) % 3),
            write_bytes=(16 * KiB) if i % 3 == 0 else 0,
            t_scatter=3e-5 if i % 3 == 0 else 0.0,
            xfer_segments=1 + block,
        )
        for i in range(n)
    ]


def per_block_run():
    trace = TraceRecorder()
    res = run_pipeline_per_block(
        DEFAULT_HARDWARE,
        [synthetic_chunks(6, block=b) for b in range(3)],
        PipelineConfig(ring_depth=2),
        cpu_threads=2,
        trace=trace,
    )
    return [("per_block", tuple(trace))], res.total_time


def fatal_dma_run():
    """A DMA that exhausts its retries: the timeline up to the raise."""
    trace = TraceRecorder()
    plan = FaultPlan(name="fatal").dma.error(chunk=2, retries=99)
    with pytest.raises(DmaFaultError) as err:
        run_pipeline(
            DEFAULT_HARDWARE,
            synthetic_chunks(5),
            PipelineConfig(ring_depth=2, cpu_workers=2),
            trace=trace,
            faults=plan,
        )
    return [("fatal", tuple(trace))], str(err.value)


CASES = {
    "bigkernel-wordcount": engine_run(BigKernelEngine, "wordcount"),
    "bigkernel-kmeans": engine_run(BigKernelEngine, "kmeans"),
    "gpu_double-wordcount": engine_run(GpuDoubleBufferEngine, "wordcount"),
    "gpu_double-kmeans": engine_run(GpuDoubleBufferEngine, "kmeans"),
    "per_block-synthetic": per_block_run,
    "gpu_uvm-kmeans": engine_run(lambda: GpuUvmEngine(SMALL_PAGES), "kmeans"),
    "uvm_readahead-wordcount": engine_run(
        lambda: UvmReadaheadEngine(SMALL_PAGES), "wordcount"
    ),
    "uvm_learned-kmeans": engine_run(lambda: UvmLearnedEngine(SMALL_PAGES), "kmeans"),
    "multigpu2-shared-wordcount": sharded_run,
    "pcie.degrade-bigkernel": engine_run(
        BigKernelEngine, "wordcount",
        FaultPlan(name="degrade").pcie.degrade(gbps=2.0, at=2e-4),
    ),
    "pcie.degrade-gpu_uvm": engine_run(
        lambda: GpuUvmEngine(SMALL_PAGES), "kmeans",
        FaultPlan(name="degrade").pcie.degrade(gbps=1.0, at=1e-4),
    ),
    "dma.error-retried-gpu_double": engine_run(
        GpuDoubleBufferEngine, "wordcount",
        FaultPlan(name="retry").dma.error(chunk=1, retries=2),
    ),
    "dma.error-retried-d2h-bigkernel": engine_run(
        BigKernelEngine, "kmeans",
        FaultPlan(name="retry-d2h").dma.error(
            chunk=1, retries=1, direction="d2h", stage="write_transfer"
        ),
    ),
    "dma.error-fatal": fatal_dma_run,
    "assembly.stall-bigkernel": engine_run(
        BigKernelEngine, "kmeans", FaultPlan(name="stall").assembly.stall(ms=0.05),
    ),
    "assembly.stall-one-gpu_double": engine_run(
        GpuDoubleBufferEngine, "wordcount",
        FaultPlan(name="stall-one").assembly.stall(ms=0.1, chunk=2),
    ),
    "pinned.deny-shrink-bigkernel": engine_run(
        BigKernelEngine, "wordcount",
        FaultPlan(name="shrink").pinned.deny(after_bytes=100 * KiB),
        chunk_bytes=256 * KiB,
    ),
    "pinned.deny-fallback-bigkernel": engine_run(
        BigKernelEngine, "wordcount",
        FaultPlan(name="fallback").pinned.deny(after_bytes=16 * KiB),
        chunk_bytes=256 * KiB,
    ),
}


def case_digest(name: str) -> str:
    traces, clock = CASES[name]()
    assert all(trace for _, trace in traces), f"{name}: empty trace"
    return trace_digest(
        [iv for _, trace in traces for iv in trace],
        (tuple(tag for tag, _ in traces), clock),
    )


GOLDEN = {
    'bigkernel-wordcount': 'f6810ebb146196e2076ffed5be50254ae851d34246dc3a832b6ada68a09f5374',
    'bigkernel-kmeans': 'aed5e3555a7b061951740e44663d839f047165887d883f92e03e1dd1768f3520',
    'gpu_double-wordcount': 'bdfb43dee413f72e52d50d4711b76622a77e6274e0658d0f3899730cbbf63183',
    'gpu_double-kmeans': '513ff6614913ddaddbbccb15dba8cf423c21386c7dd164d1f4d0bd47634534a4',
    'per_block-synthetic': '0887ee34781991d1af7633f256cb108ab919a6967ae81ad1593abcba73cfc676',
    'gpu_uvm-kmeans': '003a12bc3ca764b622e4e61a56e86bbb7be103d6f0f5842c4c8991e70ad406c5',
    'uvm_readahead-wordcount': 'eedbb3cc8cf5037aaf7fc5bc2ef5b0c5fc22fa27987e5b30c3ae74b714e247ab',
    'uvm_learned-kmeans': 'a4c17c7294f871af3b86b5644f1212c55bbf96d97d3e254d0e959e11b5dbf6c6',
    'multigpu2-shared-wordcount': '6e22aa77c38d087238c71ff9353211e54b0e91386817052a0ae622ff616ac265',
    'pcie.degrade-bigkernel': '3f866dfa6182b9605b21216ef0457f3def4a88e278547d0940c93444165361f9',
    'pcie.degrade-gpu_uvm': 'a6c8add67d18463f3bbfd64c54c20be25a9647ca8ad38871eaf97f7f826b849b',
    'dma.error-retried-gpu_double': 'bb7682515882151c186e4426762e3534151ce352077c1a36e002c44e1bbe7756',
    'dma.error-retried-d2h-bigkernel': 'aaf6b7d8e658f88a84c3a17886329a8a9b05d0c0da53fe509ba12be18b5573f3',
    'dma.error-fatal': 'bb9bad28ccbc67a40efe76a34590307277e2891a85bc9a6a53c48da730fcad42',
    'assembly.stall-bigkernel': '23a449336672ef9be13912dbded601faeb830d26fa1ffcbe5a64d2c1e2a2614e',
    'assembly.stall-one-gpu_double': '6da1bb850bc3ca6adbf1558b0a4965741bfed2ad1ff343ee96883689f6de9a96',
    'pinned.deny-shrink-bigkernel': '93007a1d726414385cc53906f838bfb7ae087cb5e2c333882f55a804d9b353a0',
    'pinned.deny-fallback-bigkernel': 'dae7e00886898a6e450cc68c369860d7dbca902a5e3a845a7167cb68f2b61efb',
}


def test_every_case_has_a_digest():
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_trace(name):
    assert case_digest(name) == GOLDEN[name]


#: heap pushes (``env._eid``) of one run at 32 KiB chunks on the 1 MiB
#: datasets: the DES work per chunk, which the digests above do not see
HEAP_PUSHES = {
    ("bigkernel", "wordcount"): 648,
    ("gpu_double", "wordcount"): 648,
    ("bigkernel", "kmeans"): 522,
    ("gpu_double", "kmeans"): 1002,
}
ENGINES = {"bigkernel": BigKernelEngine, "gpu_double": GpuDoubleBufferEngine}


@pytest.mark.parametrize("engine_name,app_name", sorted(HEAP_PUSHES))
def test_heap_pushes_per_run(engine_name, app_name, monkeypatch):
    pushes = []
    plain_run = Environment.run

    def counting_run(env, *args, **kwargs):
        try:
            return plain_run(env, *args, **kwargs)
        finally:
            pushes.append(env._eid)

    monkeypatch.setattr(Environment, "run", counting_run)
    app, data = dataset(app_name)
    ENGINES[engine_name]().run(app, data, DES.with_(chunk_bytes=32 * KiB))
    assert pushes == [HEAP_PUSHES[engine_name, app_name]]


if __name__ == "__main__":
    for name in CASES:
        print(f"    {name!r}: {case_digest(name)!r},")
