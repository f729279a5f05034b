"""The functional-pass memo: one pass per dataset instance and chunking.

``Engine._functional_output`` memoizes a registered app's pass on the
dataset (``data.meta["_functional"]``). These tests pin its contract: one
real pass per distinct chunk bounds, outputs bit-equal to a run on a
freshly generated dataset, read-only arrays in fresh containers, K-means'
in-place writes unchanged, and a fresh one-shot oracle always running a
real pass.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.apps import get_app
from repro.apps.datagen import DATAGEN_VERSION
from repro.bench.jobs import DatasetSpec, JobSpec
from repro.engines import (
    BigKernelEngine,
    CpuMtEngine,
    EngineConfig,
    GpuDoubleBufferEngine,
    GpuSingleBufferEngine,
    GpuUvmEngine,
)
from repro.engines.base import Engine
from repro.serve import ServeConfig, ServeRequest, Server, bit_equal, oneshot_oracle
from repro.serve.workload import engine_spec_by_name
from repro.units import KiB

N_BYTES = 256 * KiB
CHUNKS = (EngineConfig(chunk_bytes=32 * KiB), EngineConfig(chunk_bytes=64 * KiB))
MEMO_ENGINES = (
    CpuMtEngine,
    GpuSingleBufferEngine,
    GpuDoubleBufferEngine,
    BigKernelEngine,
    GpuUvmEngine,
)


@pytest.fixture
def passes(monkeypatch):
    """Count real passes (``finalize`` calls) and the bounds of every
    ``_functional_output`` call."""
    seen = {"finalize": 0, "bounds": []}
    original = Engine._functional_output

    def spy(app, data, bounds):
        seen["bounds"].append(tuple(bounds))
        return original(app, data, bounds)

    monkeypatch.setattr(Engine, "_functional_output", staticmethod(spy))
    for cls in {type(get_app(name)) for name in ("kmeans", "wordcount", "dna")}:
        finalize = cls.finalize

        def counted(self, data, state, _finalize=finalize):
            seen["finalize"] += 1
            return _finalize(self, data, state)

        monkeypatch.setattr(cls, "finalize", counted)
    return seen


@pytest.mark.parametrize("app_name", ["kmeans", "wordcount", "dna"])
@pytest.mark.parametrize("engine_cls", MEMO_ENGINES, ids=lambda c: c.name)
def test_one_pass_per_bounds_and_bit_equal_to_fresh(passes, engine_cls, app_name):
    app = get_app(app_name)
    data = app.generate(n_bytes=N_BYTES, seed=4)
    engine = engine_cls()
    runs = [engine.run(app, data, cfg) for _ in range(3) for cfg in CHUNKS]
    distinct = set(passes["bounds"])
    # cpu_mt chunks by thread count, so its bounds ignore chunk_bytes
    assert len(distinct) == (1 if engine_cls is CpuMtEngine else 2)
    assert passes["finalize"] == len(distinct)
    fresh = []
    for cfg in CHUNKS:
        fresh_app = get_app(app_name)
        fresh_data = fresh_app.generate(n_bytes=N_BYTES, seed=4)
        fresh.append(engine_cls().run(fresh_app, fresh_data, cfg))
    for run, want in zip(runs, fresh * 3):
        assert run.sim_time == want.sim_time
        assert bit_equal(run.output, want.output)


def test_handed_out_arrays_are_read_only(passes):
    app = get_app("dna")
    data = app.generate(n_bytes=N_BYTES, seed=5)
    engine = BigKernelEngine()
    first = engine.run(app, data, CHUNKS[0]).output
    with pytest.raises(ValueError, match="read-only"):
        first["table"][0] = 99
    # the containers are the caller's own: editing them poisons nothing
    first["noisy"] = -1
    first["extra"] = True
    again = engine.run(app, data, CHUNKS[0]).output
    assert again is not first
    assert passes["finalize"] == 1
    fresh = BigKernelEngine().run(
        get_app("dna"), get_app("dna").generate(n_bytes=N_BYTES, seed=5), CHUNKS[0]
    )
    assert bit_equal(again, fresh.output)


def test_kmeans_hit_leaves_cids_as_a_real_pass_writes(passes):
    app = get_app("kmeans")
    data = app.generate(n_bytes=N_BYTES, seed=6)
    engine = GpuDoubleBufferEngine()
    for cfg in (CHUNKS[0], CHUNKS[1], CHUNKS[0]):
        out = engine.run(app, data, cfg).output
    assert passes["finalize"] == 2
    fresh = app.generate(n_bytes=N_BYTES, seed=6)
    app.reference(fresh)
    want = fresh.mapped["particles"]["cid"]
    assert bit_equal(data.mapped["particles"]["cid"], want)
    assert bit_equal(out, want)


def test_oneshot_oracle_runs_a_real_pass_after_served_runs(passes):
    job = JobSpec(
        dataset=DatasetSpec("wordcount", 8, N_BYTES, DATAGEN_VERSION),
        engine=engine_spec_by_name("bigkernel"),
        config=CHUNKS[0],
    )
    served = []
    with Server(ServeConfig(cache=False)) as server:
        for req_id in range(3):
            server.submit(ServeRequest(req_id, "t", 0.0, job))
            served += server.drain()
    assert server.metrics.engine_runs == 3
    assert passes["finalize"] == 1
    oracle = oneshot_oracle(job)
    assert passes["finalize"] == 2
    assert all(bit_equal(r.result.output, oracle.output) for r in served)


def test_concurrent_runs_on_one_dataset_share_the_memo():
    # the sweep's thread backend runs points on one dataset at once
    app = get_app("wordcount")
    data = app.generate(n_bytes=N_BYTES, seed=9)
    fresh_app = get_app("wordcount")
    fresh = fresh_app.generate(n_bytes=N_BYTES, seed=9)
    want = [BigKernelEngine().run(fresh_app, fresh, cfg).output for cfg in CHUNKS]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(BigKernelEngine().run, app, data, CHUNKS[i % 2])
                for i in range(32)
            ]
            outputs = [f.result(timeout=120).output for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for i, output in enumerate(outputs):
        assert bit_equal(output, want[i % 2])
    assert len(data.meta["_functional"]) == len(CHUNKS)
