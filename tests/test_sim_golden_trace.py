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

The heap work is pinned beside the timelines: every case's heap pushes
(``HEAP_PUSHES``) and the ``(time, priority, eid)`` of every entry it
pops (``HEAP_ORDER``), so a chain of callbacks standing in for a process
must push what the process pushed, in the same order. Three runs whose
failing DMA a stage or a migration waits on pin that the waiter fails
and raises at its own entry (``WAITED_FATAL``).

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
from repro.sim import core
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


#: heap pushes (``env._eid``) of each case's run, counted when its
#: ``env.run()`` returns (the fatal case at the raise): the DES work, which
#: the digests above do not see. A chain of callbacks that replaces a
#: process must push exactly the entries the process pushed, so no count
#: here moves with one. The four clean engine cases are counted at 32 KiB
#: chunks (twice the chunks of their digest runs), every other case as its
#: digest runs it.
HEAP_PUSHES = {
    "bigkernel-wordcount": 648,
    "bigkernel-kmeans": 522,
    "gpu_double-wordcount": 648,
    "gpu_double-kmeans": 1002,
    "per_block-synthetic": 540,
    "gpu_uvm-kmeans": 1341,
    "uvm_readahead-wordcount": 517,
    "uvm_learned-kmeans": 837,
    "multigpu2-shared-wordcount": 336,
    "pcie.degrade-bigkernel": 328,
    "pcie.degrade-gpu_uvm": 1341,
    "dma.error-retried-gpu_double": 332,
    "dma.error-retried-d2h-bigkernel": 284,
    "dma.error-fatal": 96,
    "assembly.stall-bigkernel": 291,
    "assembly.stall-one-gpu_double": 329,
    "pinned.deny-shrink-bigkernel": 88,
    "pinned.deny-fallback-bigkernel": 88,
}
PUSH_RUNS = {
    **CASES,
    "bigkernel-wordcount": engine_run(
        BigKernelEngine, "wordcount", chunk_bytes=32 * KiB
    ),
    "bigkernel-kmeans": engine_run(BigKernelEngine, "kmeans", chunk_bytes=32 * KiB),
    "gpu_double-wordcount": engine_run(
        GpuDoubleBufferEngine, "wordcount", chunk_bytes=32 * KiB
    ),
    "gpu_double-kmeans": engine_run(
        GpuDoubleBufferEngine, "kmeans", chunk_bytes=32 * KiB
    ),
}


def test_every_case_has_a_push_count():
    assert set(HEAP_PUSHES) == set(CASES)


def counted_pushes(monkeypatch) -> list:
    """From now on, ``env._eid`` of every ``env.run()`` as it returns or
    raises."""
    pushes = []
    plain_run = Environment.run

    def counting_run(env, *args, **kwargs):
        try:
            return plain_run(env, *args, **kwargs)
        finally:
            pushes.append(env._eid)

    monkeypatch.setattr(Environment, "run", counting_run)
    return pushes


@pytest.mark.parametrize("name", sorted(HEAP_PUSHES))
def test_heap_pushes_per_run(name, monkeypatch):
    pushes = counted_pushes(monkeypatch)
    PUSH_RUNS[name]()
    assert pushes == [HEAP_PUSHES[name]]


def heap_order(run, monkeypatch) -> str:
    """SHA-256 over the ``(time, priority, eid)`` of every heap entry
    popped while ``run`` runs, in pop order. Each ``eid`` is the order of
    a push, so this pins which push made which entry: two same-time
    pushes made in the other order, or one pushed a step early, change it
    even where no interval and no count moves."""
    pops = []
    plain_pop = core.heappop

    def recording_pop(queue):
        entry = plain_pop(queue)
        pops.append(entry[:3])
        return entry

    monkeypatch.setattr(core, "heappop", recording_pop)
    run()
    return hashlib.sha256(repr(pops).encode()).hexdigest()


#: :func:`heap_order` of each golden case
HEAP_ORDER = {
    'bigkernel-wordcount': '00d64d489fe40935c34e06793bdb6cec3e2397da755f1d995f3da9ae25a4359b',
    'bigkernel-kmeans': 'f3e00d1346f5f5a5d752bdefb97b4b0afceb03495d4c3aaabc0c9a0ed39e94cd',
    'gpu_double-wordcount': '9ec2139c9f16ed19f078bfd8fb5995b23da303d1f909d5d37890ecddabe468a0',
    'gpu_double-kmeans': '443e073b34fadb70a618a0f4a22433036bc089fa36fcbbe051570670a9b9ac18',
    'per_block-synthetic': '2b200ab2a3cd5aed1b25f6eb517a318a654aec893636f2c2ac493ae86b358e45',
    'gpu_uvm-kmeans': '33b8ed63dc67e9966b001ac0d82309ce69278c378acfc77a7cb331404deda6ae',
    'uvm_readahead-wordcount': 'dbf89272adc4aa5899be31b7880a6eb01fe19f9b8cf6cdc390e574c95ffa2a30',
    'uvm_learned-kmeans': 'e416b96a70b86b5c32226263fb25ef0564b1f5a7f4080d8d868f4d2fe9333d0f',
    'multigpu2-shared-wordcount': '27b56eb7afec293f5e84d59b2de312957850ffd18878ff0afe6bf25b8ec1779b',
    'pcie.degrade-bigkernel': 'f86e214f88fc26c9038be1371b57ca669613e8a724f543548d91519a5c9abb13',
    'pcie.degrade-gpu_uvm': '12773fa29520f4109cf1300175464f77c581d6efc4633c6a791cfd654ddb33b0',
    'dma.error-retried-gpu_double': '4a31d0f6980ca5f94fa6176182be1851701a2a41b56f9cec81dfb535c2465489',
    'dma.error-retried-d2h-bigkernel': '9078f01ab46c08b05f29c3dbd1f1f5d6f3fb715441f4dc53e032369fc1aa69e3',
    'dma.error-fatal': '85fc2f261b3280e6e17a8fcb180cf37625e4cc633aee7ceaad2dd3b0c5e4e2e2',
    'assembly.stall-bigkernel': '533e21b83886ec9a9c6378f039c1dd718a61dc0ed142cbdc40c71be985c9b7e9',
    'assembly.stall-one-gpu_double': '4c7ca4119c4c935b3db29cb5ed2390c331d54d3116b48c76c489675e5ffb01ad',
    'pinned.deny-shrink-bigkernel': '35767acd340f285b578a252f965cf3c368188cecb210edf9293d961b1bd8e694',
    'pinned.deny-fallback-bigkernel': 'ce0f5758e45f81710455d81abf93af7b9fa9475b7da2c2d48e0362d68b9e3b19',
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_heap_order(name, monkeypatch):
    assert heap_order(CASES[name], monkeypatch) == HEAP_ORDER[name]


def waited_fatal_run(make_engine, app_name: str, plan):
    def run():
        app, data = dataset(app_name)
        with pytest.raises(DmaFaultError) as err:
            make_engine().run(app, data, DES.with_(faults=plan))
        return str(err.value)
    return run


def waited_fatal_pipeline_run():
    with pytest.raises(DmaFaultError) as err:
        run_pipeline(
            DEFAULT_HARDWARE,
            synthetic_chunks(5),
            PipelineConfig(ring_depth=2, cpu_workers=2),
            faults=FaultPlan(name="fatal-addr").dma.error(
                chunk=1, retries=99, direction="d2h", stage="addr_gen"
            ),
        )
    return str(err.value)


#: DMAs that fail for good while a stage or a migration waits on them
#: (the ``dma.error-fatal`` case fails a flagged transfer, which nothing
#: waits on). The waiter defuses the failure and fails itself, so
#: ``env.run()`` raises when the waiter's own entry pops. Each run is
#: pinned by its error, its heap pushes at the raise and its
#: :func:`heap_order`.
WAITED_FATAL = {
    "addr_gen-pipeline": (
        waited_fatal_pipeline_run,
        "DMA 'addr_gen' (chunk 1, d2h) failed permanently after 3 attempt(s)",
        43,
        "61652460421c01f619cd40f8a27d6934a787377a1ff3b8644849274a4b234857",
    ),
    "write_transfer-bigkernel": (
        waited_fatal_run(
            BigKernelEngine, "kmeans",
            FaultPlan(name="fatal-d2h").dma.error(
                chunk=3, retries=99, direction="d2h", stage="write_transfer"
            ),
        ),
        "DMA 'write_transfer' (chunk 3, d2h) failed permanently after 3 attempt(s)",
        225,
        "730dc1e1f20c8d1e57539c2447edd1cc02bda0ed3c00605b894e79b5621af1af",
    ),
    "migration-gpu_uvm": (
        waited_fatal_run(
            lambda: GpuUvmEngine(SMALL_PAGES), "kmeans",
            FaultPlan(name="fatal-migration").dma.error(chunk=2, retries=99),
        ),
        "DMA 'data_transfer' (chunk 2, h2d) failed permanently after 3 attempt(s)",
        57,
        "e2a6ee7e0ae6a13c48b8099c28ee4616b08f58e6ad25741198540b30a6bcfb0b",
    ),
}


@pytest.mark.parametrize("name", sorted(WAITED_FATAL))
def test_waited_dma_failure_fails_its_waiter(name, monkeypatch):
    run, message, n_pushes, order = WAITED_FATAL[name]
    pushes, errors = counted_pushes(monkeypatch), []
    assert heap_order(lambda: errors.append(run()), monkeypatch) == order
    assert (errors, pushes) == ([message], [n_pushes])


if __name__ == "__main__":
    for name in CASES:
        print(f"    {name!r}: {case_digest(name)!r},")
