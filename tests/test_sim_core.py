"""Unit tests for the discrete-event engine core."""

import pytest

from repro.errors import Deadlock, Interrupt, SimulationError
from repro.sim import Environment, AllOf, AnyOf, Resource


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(1.0)
        log.append(env.now)
        yield env.timeout(2.5)
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [1.0, 3.5]


def test_timeout_value_passthrough():
    env = Environment()
    seen = []

    def proc(env):
        v = yield env.timeout(1.0, value="payload")
        seen.append(v)

    env.process(proc(env))
    env.run()
    assert seen == ["payload"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_process_return_value_joinable():
    env = Environment()
    results = []

    def child(env):
        yield env.timeout(2.0)
        return 42

    def parent(env):
        value = yield env.process(child(env))
        results.append((env.now, value))

    env.process(parent(env))
    env.run()
    assert results == [(2.0, 42)]


def test_run_until_time_stops_clock():
    env = Environment()

    def ticker(env):
        while True:
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run(until=5.5)
    assert env.now == 5.5


def test_run_until_event_returns_value():
    env = Environment()

    def child(env):
        yield env.timeout(3.0)
        return "done"

    proc = env.process(child(env))
    assert env.run(until=proc) == "done"
    assert env.now == 3.0


def test_run_until_past_time_rejected():
    env = Environment(initial_time=10.0)
    with pytest.raises(SimulationError):
        env.run(until=5.0)


def test_exception_in_process_propagates_from_run():
    env = Environment()

    def boom(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    env.process(boom(env))
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_exception_caught_by_joining_parent():
    env = Environment()
    caught = []

    def boom(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    def parent(env):
        try:
            yield env.process(boom(env))
        except ValueError as e:
            caught.append(str(e))

    env.process(parent(env))
    env.run()
    assert caught == ["boom"]


def test_event_succeed_wakes_waiter():
    env = Environment()
    order = []

    def waiter(env, ev):
        v = yield ev
        order.append(("woke", env.now, v))

    def setter(env, ev):
        yield env.timeout(4.0)
        ev.succeed("hello")
        order.append(("set", env.now))

    ev = env.event()
    env.process(waiter(env, ev))
    env.process(setter(env, ev))
    env.run()
    assert ("woke", 4.0, "hello") in order


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    env = Environment()
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_yield_already_processed_event_continues_immediately():
    env = Environment()
    ev = env.event()
    ev.succeed("early")
    seen = []

    def proc(env):
        yield env.timeout(1.0)
        v = yield ev  # processed long ago
        seen.append((env.now, v))

    env.process(proc(env))
    env.run()
    assert seen == [(1.0, "early")]


def test_all_of_waits_for_slowest():
    env = Environment()
    times = []

    def proc(env):
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(5.0, value="b")
        result = yield env.all_of([t1, t2])
        times.append(env.now)
        assert set(result.values()) == {"a", "b"}

    env.process(proc(env))
    env.run()
    assert times == [5.0]


def test_any_of_fires_on_fastest():
    env = Environment()
    times = []

    def proc(env):
        t1 = env.timeout(1.0, value="fast")
        t2 = env.timeout(5.0, value="slow")
        result = yield env.any_of([t1, t2])
        times.append(env.now)
        assert list(result.values()) == ["fast"]

    env.process(proc(env))
    env.run()
    assert times == [1.0]


def test_empty_all_of_fires_immediately():
    env = Environment()
    done = []

    def proc(env):
        yield env.all_of([])
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [0.0]


def test_interrupt_raises_in_target():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as it:
            log.append((env.now, it.cause))

    def interrupter(env, victim):
        yield env.timeout(2.0)
        victim.interrupt(cause="wake-up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [(2.0, "wake-up")]


def test_interrupt_dead_process_rejected():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_deterministic_tie_breaking_is_fifo():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in range(8):
        env.process(proc(env, tag))
    env.run()
    assert order == list(range(8))


def test_step_on_empty_queue_is_deadlock():
    env = Environment()
    with pytest.raises(Deadlock):
        env.step()


def test_run_until_event_that_never_fires_is_deadlock():
    env = Environment()
    ev = env.event()

    def noop(env):
        yield env.timeout(1.0)

    env.process(noop(env))
    with pytest.raises(Deadlock):
        env.run(until=ev)


def test_yield_non_event_raises():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError):
        env.run()


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(SimulationError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_nested_processes_compose():
    env = Environment()

    def leaf(env, d):
        yield env.timeout(d)
        return d

    def mid(env):
        a = yield env.process(leaf(env, 1.0))
        b = yield env.process(leaf(env, 2.0))
        return a + b

    def root(env, out):
        total = yield env.process(mid(env))
        out.append((env.now, total))

    out = []
    env.process(root(env, out))
    env.run()
    assert out == [(3.0, 3.0)]


# -- events kept off the heap -----------------------------------------------
def test_with_block_release_pushes_no_event():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(env, tag):
        with res.request() as req:
            yield req
            order.append((tag, env.now))
            yield env.timeout(1.0)

    env.process(user(env, "a"))
    env.process(user(env, "b"))
    env.run()
    assert order == [("a", 0.0), ("b", 1.0)]
    # per user an Initialize, a grant, a timeout and its completion; no
    # Release events
    assert env._eid == 8
    assert res.count == 0


def test_explicit_release_is_still_a_scheduled_event():
    env = Environment()
    res = Resource(env, capacity=1)
    resumed = []

    def user(env):
        req = res.request()
        yield req
        rel = res.release(req)
        assert rel.triggered and not rel.processed
        yield rel
        resumed.append(env.now)

    env.process(user(env))
    env.run()
    assert resumed == [0.0] and res.count == 0
