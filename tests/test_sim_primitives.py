"""Tests for resources, stores, flags, barriers, semaphores, traces."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError, SynchronizationError
from repro.sim import (
    Barrier,
    Environment,
    Flag,
    PriorityResource,
    Resource,
    Semaphore,
    Store,
    TraceRecorder,
    utilization,
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
            req = res.request()
            assert res.queue_length == 1
            yield req
            res.release(req)

        env.process(holder(env))
        env.process(waiter(env))
        env.run()


class TestPriorityResource:
    def test_priority_jumps_queue(self):
        env = Environment()
        res = PriorityResource(env, capacity=1)
        grants = []

        def user(env, tag, prio, delay):
            yield env.timeout(delay)
            req = res.request(priority=prio)
            yield req
            grants.append(tag)
            yield env.timeout(10.0)
            res.release(req)

        env.process(user(env, "first", 5, 0.0))
        env.process(user(env, "low", 5, 1.0))
        env.process(user(env, "high", 0, 2.0))
        env.run()
        assert grants == ["first", "high", "low"]


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

    def test_counts_tracked(self):
        env = Environment()
        flag = Flag(env)
        flag.set()
        flag.wait()
        assert flag.signal_count == 1
        assert flag.wait_count == 1


class TestBarrier:
    def test_releases_all_at_last_arrival(self):
        env = Environment()
        bar = Barrier(env, parties=3)
        released = []

        def p(env, delay):
            yield env.timeout(delay)
            yield bar.wait()
            released.append(env.now)

        for d in (1.0, 2.0, 5.0):
            env.process(p(env, d))
        env.run()
        assert released == [5.0, 5.0, 5.0]

    def test_reusable_generations(self):
        env = Environment()
        bar = Barrier(env, parties=2)
        gens = []

        def p(env):
            for _ in range(3):
                g = yield bar.wait()
                gens.append(g)

        env.process(p(env))
        env.process(p(env))
        env.run()
        assert sorted(gens) == [0, 0, 1, 1, 2, 2]
        assert bar.generation == 3

    def test_single_party_barrier_is_noop(self):
        env = Environment()
        bar = Barrier(env, parties=1)
        done = []

        def p(env):
            yield bar.wait()
            done.append(env.now)

        env.process(p(env))
        env.run()
        assert done == [0.0]

    def test_invalid_parties(self):
        with pytest.raises(SimulationError):
            Barrier(Environment(), parties=0)


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

    def test_utilization(self):
        tr = TraceRecorder()
        tr.record("gpu", "comp", 0.0, 5.0)
        tr.record("pcie", "xfer", 0.0, 10.0)
        assert utilization(tr, "gpu") == pytest.approx(0.5)

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
