"""The one memo primitive: LRU order and bound, counters by name, what
``get_or_compute`` keeps, the silent probe, pickling, and threads."""

import copy
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.apps import get_app
from repro.engines import BigKernelEngine, EngineConfig, GpuUvmEngine
from repro.memo import MEMO_STATS, Memo
from repro.units import KiB


def _counts(name):
    return dict(MEMO_STATS[name])


def test_lru_order_and_bound():
    memo = Memo("test.lru", 2)
    memo.put("a", 1)
    memo.put("b", 2)
    assert memo.get("a") == 1  # "a" is now the most recent
    memo.put("c", 3)  # evicts "b", the least recent
    assert len(memo) == 2
    assert memo.get("b") is None
    assert memo.get("a") == 1 and memo.get("c") == 3
    memo.put("a", 10)  # a re-put replaces and refreshes, evicting nothing
    memo.put("d", 4)  # evicts "c"
    assert memo.get("c", "gone") == "gone"
    assert memo.get("a") == 10 and memo.get("d") == 4
    memo.maxsize = 1
    memo.put("e", 5)
    assert len(memo) == 1 and memo.get("e") == 5
    memo.clear()
    assert len(memo) == 0


def test_counters_are_summed_by_name():
    one = Memo("test.shared", 4)
    two = Memo("test.shared", 1)
    before = _counts("test.shared")
    one.put("k", 1)
    two.put("k", 1)
    two.put("j", 2)  # evicts "k" from two only
    assert one.get("k") == 1
    assert two.get("k") is None
    assert two.get("j") == 2
    after = _counts("test.shared")
    assert after["hits"] == before["hits"] + 2
    assert after["misses"] == before["misses"] + 1
    assert after["evictions"] == before["evictions"] + 1


def test_get_or_compute_caches_none_but_not_an_exception():
    memo = Memo("test.compute", 4)
    calls = []

    def unmodelable():
        calls.append(1)
        return None

    assert memo.get_or_compute("x", unmodelable) is None
    assert memo.get_or_compute("x", unmodelable) is None
    assert len(calls) == 1

    def failing():
        calls.append(1)
        raise ValueError("no plan fits")

    for _ in range(2):
        with pytest.raises(ValueError):
            memo.get_or_compute("y", failing)
    assert len(calls) == 3
    assert "y" not in memo
    assert memo.get_or_compute("y", lambda: 7) == 7


def test_in_is_a_silent_probe():
    memo = Memo("test.probe", 2)
    memo.put("a", 1)
    memo.put("b", 2)
    before = _counts("test.probe")
    assert "a" in memo and "z" not in memo
    assert _counts("test.probe") == before
    memo.put("c", 3)  # the probe did not refresh "a": it is evicted
    assert "a" not in memo and "b" in memo


def test_a_pickled_memo_arrives_empty_and_counts_by_name():
    memo = Memo("test.pickle", 3)
    memo.put("a", 1)
    arrived = pickle.loads(pickle.dumps(memo))
    assert len(arrived) == 0 and arrived.maxsize == 3
    assert arrived.name == "test.pickle"
    before = _counts("test.pickle")
    assert arrived.get("a") is None
    arrived.put("a", 2)
    assert arrived.get("a") == 2 and memo.get("a") == 1
    after = _counts("test.pickle")
    assert after["misses"] == before["misses"] + 1
    assert after["hits"] == before["hits"] + 2


def test_a_deep_copy_keeps_copies_of_the_entries():
    """A warmed owner stays warm when deep-copied (the SLO benchmark gives
    each policy a copy of one calibrated pricer)."""
    memo = Memo("test.deepcopy", 2)
    memo.put("a", [1])
    memo.put("b", [2])
    clone = copy.deepcopy(memo)
    assert clone.name == memo.name and clone.maxsize == 2
    clone.put("c", [3])  # "a" is the least recent in the copy too
    assert "a" not in clone and clone.get("b") == [2] and clone.get("c") == [3]
    assert memo.get("a") == [1] and clone.get("b") is not memo.get("b")


@pytest.mark.parametrize("engine_cls", [BigKernelEngine, GpuUvmEngine])
def test_engines_holding_memos_still_pickle(engine_cls):
    engine = engine_cls()
    app = get_app("wordcount")
    data = app.generate(n_bytes=64 * KiB, seed=1)
    config = EngineConfig(chunk_bytes=32 * KiB, functional=False)
    ref = engine.run(app, data, config)
    arrived = pickle.loads(pickle.dumps(engine))
    assert arrived.identity == engine.identity
    assert arrived.run(app, data, config).sim_time == ref.sim_time


def test_threads_past_the_bound_lose_no_count():
    """Four threads cycle three keys through a memo of two at a 1 us switch
    interval: no lookup fails, the bound holds, every value is the one
    computed for its key, and every lookup is counted once."""
    memo = Memo("test.threads", 2)
    before = _counts("test.threads")
    iterations = 2000

    def cycle(shift):
        ok = True
        for i in range(iterations):
            key = (shift + i) % 3
            if i % 2:
                value = memo.get_or_compute(key, lambda: key * 10)
            else:
                value = memo.get(key)
                if value is None:
                    value = key * 10
                    memo.put(key, value)
            ok &= value == key * 10 and len(memo) <= 2
        return ok

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(cycle, k) for k in range(4)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(results)
    assert len(memo) <= 2
    after = _counts("test.threads")
    lookups = (after["hits"] - before["hits"]) + (after["misses"] - before["misses"])
    assert lookups == 4 * iterations
