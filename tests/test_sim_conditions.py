"""Additional engine-core coverage: composite events (values, failure
propagation, mixed waits) and scheduling order."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Flag, Store
from repro.sim.core import URGENT, NORMAL


class TestConditionFailures:
    def test_all_of_fails_when_member_fails(self):
        env = Environment()
        caught = []

        def failer(env):
            yield env.timeout(1.0)
            raise ValueError("member died")

        def waiter(env):
            p = env.process(failer(env))
            t = env.timeout(5.0)
            try:
                yield env.all_of([p, t])
            except ValueError as e:
                caught.append((env.now, str(e)))

        env.process(waiter(env))
        env.run()
        assert caught == [(1.0, "member died")]

    def test_condition_events_must_share_environment(self):
        env1, env2 = Environment(), Environment()
        t1 = env1.timeout(1.0)
        t2 = env2.timeout(1.0)
        with pytest.raises(SimulationError):
            env1.all_of([t1, t2])


class TestAllOfValues:
    def test_value_maps_members_in_order(self):
        env = Environment()
        got = []

        def proc(env):
            slow = env.timeout(3.0, value="slow")
            fast = env.timeout(1.0, value="fast")
            result = yield env.all_of([slow, fast])
            got.append((env.now, list(result) == [slow, fast], list(result.values())))

        env.process(proc(env))
        env.run()
        assert got == [(3.0, True, ["slow", "fast"])]

    def test_processed_members_fire_at_once(self):
        env = Environment()
        a = env.timeout(1.0, value="a")
        b = env.timeout(2.0, value="b")
        env.run()
        done = []

        def proc(env):
            result = yield env.all_of([a, b])
            done.append((env.now, result[a], result[b]))

        env.process(proc(env))
        env.run()
        assert done == [(2.0, "a", "b")]

    def test_joins_processes_with_their_return_values(self):
        env = Environment()
        out = []

        def leaf(env, delay):
            yield env.timeout(delay)
            return delay * 10

        def root(env):
            procs = [env.process(leaf(env, d)) for d in (3.0, 1.0, 2.0)]
            result = yield env.all_of(procs)
            out.append((env.now, [result[p] for p in procs]))

        env.process(root(env))
        env.run()
        assert out == [(3.0, [30.0, 10.0, 20.0])]

    def test_waits_on_flag_and_store_together(self):
        """The pipeline's mixed wait: a flag and a store hand-off."""
        env = Environment()
        flag, store = Flag(env), Store(env)
        got = []

        def consumer(env):
            result = yield env.all_of([flag.wait(), store.get()])
            got.append((env.now, sorted(result.values())))

        def producer(env):
            yield env.timeout(1.0)
            yield store.put("item")
            yield env.timeout(2.0)
            flag.set("ready")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert got == [(3.0, ["item", "ready"])]


class TestScheduling:
    def test_urgent_fires_before_normal_at_same_time(self):
        env = Environment()
        order = []
        e_normal = env.event()
        e_urgent = env.event()
        e_normal.callbacks.append(lambda ev: order.append("normal"))
        e_urgent.callbacks.append(lambda ev: order.append("urgent"))
        # schedule normal FIRST, urgent second — urgent still wins the tie
        e_normal._ok = True
        e_normal._value = None
        env.schedule(e_normal, delay=1.0, priority=NORMAL)
        e_urgent._ok = True
        e_urgent._value = None
        env.schedule(e_urgent, delay=1.0, priority=URGENT)
        env.run()
        assert order == ["urgent", "normal"]

    def test_same_priority_ties_keep_schedule_order(self):
        env = Environment()
        order = []
        for tag, delay in (("late", 2.0), ("first", 1.0), ("second", 1.0)):
            ev = env.event()
            ev.callbacks.append(lambda e, tag=tag: order.append((tag, env.now)))
            ev._value = None
            env.schedule(ev, delay=delay)
        env.run()
        assert order == [("first", 1.0), ("second", 1.0), ("late", 2.0)]

    def test_negative_schedule_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.schedule(env.event(), delay=-1.0)
