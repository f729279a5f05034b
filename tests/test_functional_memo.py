"""The functional-pass memo and the contract it rests on.

A registered app's pass is pure and chunk-invariant (the ``Application``
contract), so ``Engine._functional_output`` memoizes it on the dataset
(``data.meta["_functional"]``) keyed on the app instance alone. These
tests pin the contract over ``APP_REGISTRY`` and the memo's behaviour: one
real pass per dataset instance whatever the chunking, chunk bounds cut only
when a pass runs, outputs bit-equal to a run on a freshly generated
dataset, read-only arrays in fresh containers, K-means' in-place writes
unchanged, and a fresh one-shot oracle always running a real pass.
"""

import inspect
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import (
    APP_REGISTRY,
    DnaAssemblyApp,
    KMeansApp,
    OpinionFinderApp,
    get_app,
)
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
from repro.engines.base import Engine, _run_passes
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

#: a non-default configuration of every registered app that takes
#: constructor keywords
CONFIGURED = (
    KMeansApp(n_clusters=5),
    DnaAssemblyApp(genome_fraction=0.05),
    OpinionFinderApp(subject_words=16, dict_frac=0.3),
)
CONTRACT_APPS = tuple(cls() for cls in APP_REGISTRY.values()) + CONFIGURED


def _label(app) -> str:
    default = vars(type(app)())
    return app.name + "".join(
        f"-{k}={v}" for k, v in vars(app).items() if default[k] != v
    )


# ----------------------------------------------------------- the contract
def test_every_app_with_keywords_has_a_configuration_under_contract():
    takes_keywords = {
        cls for cls in APP_REGISTRY.values() if inspect.signature(cls).parameters
    }
    assert takes_keywords == {type(app) for app in CONFIGURED}


@pytest.mark.parametrize("app", CONTRACT_APPS, ids=_label)
@given(
    n_bytes=st.integers(64, 16 * KiB),
    seed=st.integers(0, 2**16),
    choices=st.data(),
)
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
def test_pass_is_pure_and_chunk_invariant(app, n_bytes, seed, choices):
    """Every chunking's pass is bit-equal to the one-chunk pass and leaves
    the dataset as the one-chunk pass left it: one unit per chunk, n-1, n
    and two drawn sizes."""
    data = app.generate(n_bytes=n_bytes, seed=seed)
    n = app.n_units(data)
    whole = _run_passes(app, data, n)
    arrays = [*data.mapped.values(), *data.resident.values()]
    after = [arr.copy() for arr in arrays]
    drawn = choices.draw(st.lists(st.integers(1, n), min_size=2, max_size=2))
    for units in sorted({1, max(n - 1, 1), *drawn}):
        assert bit_equal(_run_passes(app, data, units), whole), units
        assert all(map(np.array_equal, arrays, after)), units


# --------------------------------------------------------------- the memo
@pytest.fixture
def passes(monkeypatch):
    """Count real passes (``finalize`` calls), ``chunk_bounds`` calls and
    the units per chunk of every ``_functional_output`` call."""
    seen = {"finalize": 0, "chunk_bounds": 0, "units": []}
    original = Engine._functional_output

    def spy(app, data, units_per_chunk):
        seen["units"].append(units_per_chunk)
        return original(app, data, units_per_chunk)

    monkeypatch.setattr(Engine, "_functional_output", staticmethod(spy))
    for cls in {type(get_app(name)) for name in ("kmeans", "wordcount", "dna")}:

        def counted(self, data, state, _finalize=cls.finalize):
            seen["finalize"] += 1
            return _finalize(self, data, state)

        def chunked(self, data, chunk_units, _bounds=cls.chunk_bounds):
            seen["chunk_bounds"] += 1
            return _bounds(self, data, chunk_units)

        monkeypatch.setattr(cls, "finalize", counted)
        monkeypatch.setattr(cls, "chunk_bounds", chunked)
    return seen


@pytest.mark.parametrize("app_name", ["kmeans", "wordcount", "dna"])
@pytest.mark.parametrize("engine_cls", MEMO_ENGINES, ids=lambda c: c.name)
def test_one_pass_per_dataset_and_bit_equal_to_fresh(passes, engine_cls, app_name):
    app = get_app(app_name)
    data = app.generate(n_bytes=N_BYTES, seed=4)
    engine = engine_cls()
    runs = [engine.run(app, data, cfg) for _ in range(3) for cfg in CHUNKS]
    # cpu_mt chunks by thread count, so its chunking ignores chunk_bytes
    assert len(set(passes["units"])) == (1 if engine_cls is CpuMtEngine else 2)
    assert passes["finalize"] == 1
    # bounds are cut for the one pass; cpu_mt also cuts them to count chunks
    cpu_mt_cuts = len(runs) if engine_cls is CpuMtEngine else 0
    assert passes["chunk_bounds"] == 1 + cpu_mt_cuts
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
    again = engine.run(app, data, CHUNKS[1]).output
    assert again is not first
    assert passes["finalize"] == 1
    fresh = BigKernelEngine().run(
        get_app("dna"), get_app("dna").generate(n_bytes=N_BYTES, seed=5), CHUNKS[1]
    )
    assert bit_equal(again, fresh.output)


def test_kmeans_hit_leaves_cids_as_a_real_pass_writes(passes):
    app = get_app("kmeans")
    data = app.generate(n_bytes=N_BYTES, seed=6)
    engine = GpuDoubleBufferEngine()
    for cfg in (CHUNKS[0], CHUNKS[1], CHUNKS[0]):
        out = engine.run(app, data, cfg).output
    assert passes["finalize"] == 1
    fresh = app.generate(n_bytes=N_BYTES, seed=6)
    app.reference(fresh)
    want = fresh.mapped["particles"]["cid"]
    assert bit_equal(data.mapped["particles"]["cid"], want)
    assert bit_equal(out, want)


def test_oneshot_oracle_runs_a_real_pass_after_served_runs(passes):
    jobs = [
        JobSpec(
            dataset=DatasetSpec("wordcount", 8, N_BYTES, DATAGEN_VERSION),
            engine=engine_spec_by_name("bigkernel"),
            config=cfg,
        )
        for cfg in (CHUNKS[0], CHUNKS[1], CHUNKS[0])
    ]
    served = []
    with Server(ServeConfig(cache=False)) as server:
        for req_id, job in enumerate(jobs):
            server.submit(ServeRequest(req_id, "t", 0.0, job))
            served += server.drain()
    assert server.metrics.engine_runs == 3
    assert passes["finalize"] == 1
    oracle = oneshot_oracle(jobs[1])
    assert passes["finalize"] == 2
    assert all(bit_equal(r.result.output, oracle.output) for r in served)


def test_concurrent_runs_on_one_dataset_share_the_memo():
    # a sweep on a thread pool runs points on one dataset at once
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
    assert list(data.meta["_functional"]) == [app]
