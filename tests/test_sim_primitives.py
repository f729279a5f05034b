"""Tests for resources, stores, flags, semaphores, traces."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim import (
    Environment,
    Flag,
    Resource,
    Semaphore,
    Store,
    TraceRecorder,
)


class TestResource:
    def test_capacity_one_serializes(self):
        env = Environment()
        res = Resource(env, capacity=1)
        spans = []

        def user(env, res, hold):
            with res.request() as req:
                yield req
                start = env.now
                yield env.timeout(hold)
                spans.append((start, env.now))

        env.process(user(env, res, 2.0))
        env.process(user(env, res, 3.0))
        env.run()
        (s1, e1), (s2, e2) = sorted(spans)
        assert e1 <= s2  # no overlap

    def test_capacity_two_overlaps(self):
        env = Environment()
        res = Resource(env, capacity=2)
        ends = []

        def user(env):
            with res.request() as req:
                yield req
                yield env.timeout(5.0)
                ends.append(env.now)

        env.process(user(env))
        env.process(user(env))
        env.run()
        assert ends == [5.0, 5.0]

    def test_fifo_granting(self):
        env = Environment()
        res = Resource(env, capacity=1)
        grants = []

        def user(env, tag):
            with res.request() as req:
                yield req
                grants.append(tag)
                yield env.timeout(1.0)

        for tag in range(5):
            env.process(user(env, tag))
        env.run()
        assert grants == [0, 1, 2, 3, 4]

    def test_release_on_exception(self):
        env = Environment()
        res = Resource(env, capacity=1)
        ok = []

        def bad(env):
            with res.request() as req:
                yield req
                raise RuntimeError("die holding the resource")

        def good(env):
            try:
                yield env.process(bad(env))
            except RuntimeError:
                pass
            with res.request() as req:
                yield req
                ok.append(env.now)

        env.process(good(env))
        env.run()
        assert ok  # resource was not leaked

    def test_bad_capacity(self):
        with pytest.raises(SimulationError):
            Resource(Environment(), capacity=0)

    def test_count_and_queue_length(self):
        env = Environment()
        res = Resource(env, capacity=1)

        def holder(env):
            with res.request() as req:
                yield req
                assert res.count == 1
                yield env.timeout(1.0)

        def waiter(env):
            yield env.timeout(0.5)
            with res.request() as req:
                assert res.queue_length == 1
                yield req

        env.process(holder(env))
        env.process(waiter(env))
        env.run()


    def test_grant_is_immediate_when_free(self):
        env = Environment()
        res = Resource(env, capacity=1)
        first, second = res.request(), res.request()
        assert first.triggered and not second.triggered
        assert (res.count, res.queue_length) == (1, 1)

    def test_capacity_two_admits_third_at_first_release(self):
        env = Environment()
        res = Resource(env, capacity=2)
        starts = {}

        def user(env, tag, hold):
            with res.request() as req:
                yield req
                starts[tag] = env.now
                yield env.timeout(hold)

        for tag, hold in (("a", 3.0), ("b", 1.0), ("c", 1.0)):
            env.process(user(env, tag, hold))
        env.run()
        assert starts == {"a": 0.0, "b": 0.0, "c": 1.0}

    def test_leaving_block_before_grant_withdraws_request(self):
        env = Environment()
        res = Resource(env, capacity=1)
        queued, grants = [], []

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(2.0)

        def quitter(env):
            yield env.timeout(0.5)
            with res.request():
                queued.append(res.queue_length)
            queued.append(res.queue_length)  # gave up before the grant

        def waiter(env):
            yield env.timeout(1.0)
            with res.request() as req:
                yield req
                grants.append(env.now)

        for proc in (holder, quitter, waiter):
            env.process(proc(env))
        env.run()
        assert queued == [1, 0]
        assert grants == [2.0] and res.count == 0

    def test_release_of_unheld_request_rejected(self):
        env = Environment()
        res = Resource(env, capacity=1)
        with res.request() as req:
            pass
        with pytest.raises(SimulationError):
            res._do_release(req)


class TestStore:
    def test_put_get_fifo(self):
        env = Environment()
        store = Store(env)
        got = []

        def producer(env):
            for i in range(3):
                yield store.put(i)
                yield env.timeout(1.0)

        def consumer(env):
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert got == [0, 1, 2]

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        when = []

        def consumer(env):
            item = yield store.get()
            when.append((env.now, item))

        def producer(env):
            yield env.timeout(7.0)
            yield store.put("x")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert when == [(7.0, "x")]

    def test_bounded_put_blocks(self):
        env = Environment()
        store = Store(env, capacity=1)
        times = []

        def producer(env):
            yield store.put("a")
            t0 = env.now
            yield store.put("b")  # blocks until consumer takes "a"
            times.append((t0, env.now))

        def consumer(env):
            yield env.timeout(4.0)
            yield store.get()

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert times == [(0.0, 4.0)]

    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            Store(Environment(), capacity=0)

    def test_level_counts_held_items(self):
        env = Environment()
        store = Store(env)
        for i in range(3):
            store.put(i)
        assert store.level == 3
        got = store.get()
        assert store.level == 2 and got.value == 0

    def test_put_hands_item_to_waiting_getter(self):
        env = Environment()
        store = Store(env, capacity=1)
        got = store.get()
        put = store.put("x")
        assert put.triggered and got.value == "x"
        assert store.level == 0

    def test_get_admits_oldest_blocked_putter(self):
        env = Environment()
        store = Store(env, capacity=1)
        store.put("a")
        b, c = store.put("b"), store.put("c")
        assert store.level == 1 and not b.triggered
        got = store.get()
        assert got.value == "a" and b.triggered and not c.triggered
        assert list(store.items) == ["b"]

    def test_waiting_getters_served_fifo(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer(env, tag):
            item = yield store.get()
            got.append((tag, item))

        def producer(env):
            yield env.timeout(1.0)
            for item in "xyz":
                yield store.put(item)

        for tag in range(3):
            env.process(consumer(env, tag))
        env.process(producer(env))
        env.run()
        assert got == [(0, "x"), (1, "y"), (2, "z")]


class TestFlag:
    def test_wait_after_set_fires_immediately(self):
        env = Environment()
        flag = Flag(env)
        flag.set("v")
        seen = []

        def p(env):
            v = yield flag.wait()
            seen.append((env.now, v))

        env.process(p(env))
        env.run()
        assert seen == [(0.0, "v")]

    def test_clear_rearms(self):
        env = Environment()
        flag = Flag(env)
        seen = []

        def waiter(env):
            v = yield flag.wait()
            seen.append(v)
            flag.clear()
            v = yield flag.wait()
            seen.append(v)

        def setter(env):
            yield env.timeout(1.0)
            flag.set(1)
            yield env.timeout(1.0)
            flag.set(2)

        env.process(waiter(env))
        env.process(setter(env))
        env.run()
        assert seen == [1, 2]


    def test_set_wakes_every_waiter(self):
        env = Environment()
        flag = Flag(env)
        woke = []

        def waiter(env, tag):
            v = yield flag.wait()
            woke.append((tag, env.now, v))

        def setter(env):
            yield env.timeout(2.0)
            flag.set("go")

        for tag in range(3):
            env.process(waiter(env, tag))
        env.process(setter(env))
        env.run()
        assert woke == [(0, 2.0, "go"), (1, 2.0, "go"), (2, 2.0, "go")]

    def test_is_set_follows_set_and_clear(self):
        env = Environment()
        flag = Flag(env)
        assert not flag.is_set
        flag.set(1)
        assert flag.is_set and flag.wait().triggered
        flag.clear()
        assert not flag.is_set
        assert not flag.wait().triggered  # a wait after clear blocks


class TestSemaphore:
    def test_acquire_release_cycle(self):
        env = Environment()
        sem = Semaphore(env, value=2)
        active = []
        peak = []

        def p(env, tag):
            yield sem.acquire()
            active.append(tag)
            peak.append(len(active))
            yield env.timeout(1.0)
            active.remove(tag)
            sem.release()

        for tag in range(6):
            env.process(p(env, tag))
        env.run()
        assert max(peak) <= 2

    def test_ring_depth_semantics(self):
        """depth-2 ring: producer may run at most 2 iterations ahead."""
        env = Environment()
        sem = Semaphore(env, value=2)
        produced, consumed = [], []

        def producer(env):
            for i in range(5):
                yield sem.acquire()
                produced.append((i, env.now))

        def consumer(env):
            for i in range(5):
                yield env.timeout(10.0)
                consumed.append((i, env.now))
                sem.release()

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        # item i can only be produced after consumer freed slot i-2
        for i, t in produced:
            if i >= 2:
                assert t >= consumed[i - 2][1]

    def test_invalid_value(self):
        with pytest.raises(SimulationError):
            Semaphore(Environment(), value=-1)

    def test_value_counts_free_permits(self):
        env = Environment()
        sem = Semaphore(env, value=2)
        a, b, c = sem.acquire(), sem.acquire(), sem.acquire()
        assert sem.value == 0
        assert a.triggered and b.triggered and not c.triggered
        sem.release()  # goes straight to the blocked acquirer
        assert c.triggered and sem.value == 0
        sem.release(2)
        assert sem.value == 2

    def test_release_many_wakes_waiters_fifo(self):
        env = Environment()
        sem = Semaphore(env, value=0)
        woke = []

        def p(env, tag):
            yield sem.acquire()
            woke.append((tag, env.now))

        def releaser(env):
            yield env.timeout(1.0)
            sem.release(2)
            yield env.timeout(1.0)
            sem.release(2)

        for tag in range(3):
            env.process(p(env, tag))
        env.process(releaser(env))
        env.run()
        assert woke == [(0, 1.0), (1, 1.0), (2, 2.0)]
        assert sem.value == 1

    def test_release_rejects_nonpositive_count(self):
        sem = Semaphore(Environment(), value=1)
        with pytest.raises(SimulationError):
            sem.release(0)


class TestTrace:
    def test_busy_time_merges_overlaps(self):
        tr = TraceRecorder()
        tr.record("gpu", "a", 0.0, 5.0)
        tr.record("gpu", "b", 3.0, 8.0)
        tr.record("gpu", "c", 10.0, 11.0)
        assert tr.busy_time("gpu") == pytest.approx(9.0)

    def test_overlap_time(self):
        tr = TraceRecorder()
        tr.record("gpu", "comp", 0.0, 5.0)
        tr.record("pcie", "xfer", 3.0, 9.0)
        assert tr.overlap_time("comp", "xfer") == pytest.approx(2.0)

    def test_total_time_by_label(self):
        tr = TraceRecorder()
        tr.record("gpu", "comp", 0, 2)
        tr.record("gpu", "comp", 4, 7)
        tr.record("gpu", "addr", 2, 3)
        assert tr.total_time("comp") == pytest.approx(5.0)
        assert tr.total_time() == pytest.approx(6.0)

    def test_label_totals_add_left_to_right(self):
        tr = TraceRecorder()
        for _ in range(10):
            tr.record("gpu", "comp", 0.0, 0.1)
        tr.record("pcie", "xfer", 0.0, 0.3)
        totals = tr.label_totals()
        # 0.1 added ten times left to right is 0.9999999999999999; a
        # compensated sum (``sum()`` from Python 3.12 on) is 1.0
        assert totals == {"comp": 0.9999999999999999, "xfer": 0.3}
        assert list(totals) == tr.labels()
        assert tr.total_time("comp") == totals["comp"]

    def test_makespan(self):
        tr = TraceRecorder()
        tr.record("a", "x", 1.0, 2.0)
        tr.record("b", "y", 5.0, 9.0)
        assert tr.makespan() == pytest.approx(8.0)

    def test_rejects_negative_interval(self):
        tr = TraceRecorder()
        with pytest.raises(ValueError):
            tr.record("a", "x", 2.0, 1.0)

    def test_read_only_meta_refuses_edits_and_round_trips(self):
        """A kept timeline's interval meta refuses every edit yet reads,
        copies, pickles and dumps as the dict it was."""
        import copy
        import json
        import pickle

        from repro.sim.trace import ReadOnlyMeta

        source = {"chunk": 3, "block": 1}
        meta = ReadOnlyMeta(source)
        assert meta == source and meta.get("chunk") == 3
        edits = (
            lambda m: m.__setitem__("x", 1),
            lambda m: m.__delitem__("chunk"),
            lambda m: m.__ior__({"x": 1}),
            lambda m: m.clear(),
            lambda m: m.pop("chunk"),
            lambda m: m.popitem(),
            lambda m: m.setdefault("x", 1),
            lambda m: m.update(x=1),
        )
        for edit in edits:
            with pytest.raises(TypeError):
                edit(meta)
        assert meta == source == {"chunk": 3, "block": 1}
        for twin in (
            pickle.loads(pickle.dumps(meta)),
            copy.copy(meta),
            copy.deepcopy(meta),
        ):
            assert type(twin) is ReadOnlyMeta and twin == meta
        assert json.loads(json.dumps(meta)) == dict(meta)

    def test_labels_first_seen_order(self):
        tr = TraceRecorder()
        tr.record("g", "b", 0, 1)
        tr.record("g", "a", 1, 2)
        tr.record("g", "b", 2, 3)
        assert tr.labels() == ["b", "a"]

    @given(
        spans=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100, allow_nan=False),
                st.floats(min_value=0, max_value=50, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_busy_time_bounds(self, spans):
        """busy <= sum of durations and busy <= makespan."""
        tr = TraceRecorder()
        for start, dur in spans:
            tr.record("t", "x", start, start + dur)
        busy = tr.busy_time("t")
        total = sum(d for _, d in spans)
        assert busy <= total + 1e-9
        assert busy <= tr.makespan() + 1e-9
