"""Unit tests for the discrete-event engine core."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Resource


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


def test_finished_process_keeps_its_value():
    env = Environment()

    def child(env):
        yield env.timeout(3.0)
        return "done"

    proc = env.process(child(env))
    env.run()
    assert proc.ok and proc.value == "done"
    assert env.now == 3.0


def test_run_on_empty_queue_returns_at_time_zero():
    env = Environment()
    assert env.run() is None
    assert env.now == 0.0 and env._eid == 0


def test_run_again_continues_the_clock():
    env = Environment()
    env.timeout(2.0)
    env.run()
    env.timeout(1.5)
    env.run()
    assert env.now == 3.5


def test_exception_in_process_propagates_from_run():
    env = Environment()

    def boom(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    env.process(boom(env))
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_failed_process_holds_its_exception():
    env = Environment()

    def boom(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    def parent(env, child):
        try:
            yield child
        except ValueError:
            pass

    child = env.process(boom(env))
    env.process(parent(env, child))
    env.run()
    assert child.processed and not child.ok
    assert isinstance(child.value, ValueError)


def test_process_joined_by_many_wakes_each():
    env = Environment()
    seen = []

    def child(env):
        yield env.timeout(2.0)
        return "v"

    def parent(env, tag, proc):
        value = yield proc
        seen.append((tag, env.now, value))

    proc = env.process(child(env))
    for tag in "ab":
        env.process(parent(env, tag, proc))
    env.run()
    assert seen == [("a", 2.0, "v"), ("b", 2.0, "v")]


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


def test_event_states_pending_triggered_processed():
    env = Environment()
    ev = env.event()
    assert not ev.triggered and not ev.processed
    with pytest.raises(SimulationError):
        ev.value
    with pytest.raises(SimulationError):
        ev.ok
    ev.succeed("v")
    assert ev.triggered and not ev.processed
    assert ev.ok and ev.value == "v"
    env.run()
    assert ev.processed and ev.value == "v"


def test_fail_after_succeed_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.fail(ValueError("late"))


def test_failed_event_raises_in_waiter():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter(env):
        try:
            yield ev
        except KeyError as e:
            caught.append((env.now, e.args[0]))

    def failer(env):
        yield env.timeout(2.0)
        ev.fail(KeyError("missing"))

    env.process(waiter(env))
    env.process(failer(env))
    env.run()
    assert caught == [(2.0, "missing")]
    assert not ev.ok


def test_unhandled_failed_event_raises_from_run():
    env = Environment()
    env.event().fail(KeyError("nobody waits"))
    with pytest.raises(KeyError, match="nobody waits"):
        env.run()


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


def test_empty_all_of_fires_immediately():
    env = Environment()
    done = []

    def proc(env):
        yield env.all_of([])
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [0.0]


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


def test_process_starts_ahead_of_same_time_events():
    """A process's start is URGENT: it runs before a NORMAL event
    scheduled earlier for the same instant."""
    env = Environment()
    order = []
    ev = env.event()
    ev.callbacks.append(lambda e: order.append("event"))
    ev.succeed()

    def proc(env):
        order.append("process")
        yield env.timeout(0)

    env.process(proc(env))
    env.run()
    assert order == ["process", "event"]


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
def test_each_event_is_one_heap_push():
    env = Environment()

    def proc(env):
        for _ in range(3):
            yield env.timeout(1.0)

    env.process(proc(env))
    env.run()
    # the process's start, three timeouts and its completion
    assert env._eid == 5


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
    # per user a start, a grant, a timeout and its completion; the
    # releases push nothing
    assert env._eid == 8
    assert res.count == 0
