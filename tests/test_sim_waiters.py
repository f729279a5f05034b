"""One waiter queue per primitive: events and steps are granted FIFO.

A waiter on a :class:`~repro.sim.resources.Resource`, a
:class:`~repro.sim.stores.Store`, a :class:`~repro.sim.sync.Semaphore` or
a :class:`~repro.sim.sync.Flag` is either an event (a generator
:class:`~repro.sim.core.Process` yields it) or a chain's step (a bound
method the primitive pushes at the grant). Hypothesis draws scenarios of
actors of both kinds on one primitive of each sort, and checks two laws:

* every primitive grants its waiters in arrival order, whatever their
  kind, and a store hands its items on in the order it accepted them;
* the same scenario with every actor a process pops the same
  ``(time, priority, eid)`` sequence and grants the same waiters in the
  same order: a step waits exactly where an event would have.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.sim import Environment, Event, Flag, Resource, Semaphore, Store
from repro.sim import core

#: an actor's script; the blocking ops come up most, so that waiters of
#: both kinds queue together on every primitive
OPS = st.one_of(
    st.tuples(st.sampled_from(["sleep", "hold", "hold"]), st.integers(0, 2)),
    st.tuples(
        st.sampled_from(
            ["put", "put", "put", "get", "get", "acquire", "acquire",
             "release", "wait", "set", "clear"]
        )
    ),
)
ACTORS = st.lists(
    st.tuples(st.booleans(), st.lists(OPS, min_size=1, max_size=8)),
    min_size=2,
    max_size=8,
)


class Log:
    """Each primitive's waits in arrival order and its grants in grant
    order (a grant is pushed at the current time, so waiters resume in
    the order they were granted)."""

    def __init__(self):
        self.arrived: dict = {}
        self.granted: dict = {}
        self.items: list = []

    def arrive(self, kind, who):
        self.arrived.setdefault(kind, []).append(who)

    def grant(self, kind, who):
        self.granted.setdefault(kind, []).append(who)


class Prims:
    def __init__(self, env, res_cap, store_cap, permits):
        self.res = Resource(env, capacity=res_cap)
        self.store = Store(env, capacity=store_cap)
        self.sem = Semaphore(env, value=permits)
        self.flag = Flag(env)


def event_actor(env, prims, aid, ops, log):
    """An actor whose every wait is an event it yields."""
    for i, op in enumerate(ops):
        who, kind = (aid, i), op[0]
        if kind == "sleep":
            yield env.timeout(op[1])
        elif kind == "hold":
            log.arrive("res", who)
            with prims.res.request() as req:
                yield req
                log.grant("res", who)
                yield env.timeout(op[1])
        elif kind == "put":
            log.arrive("put", who)
            yield prims.store.put(who)
            log.grant("put", who)
        elif kind == "get":
            log.arrive("get", who)
            log.items.append((yield prims.store.get()))
            log.grant("get", who)
        elif kind == "acquire":
            log.arrive("sem", who)
            yield prims.sem.acquire()
            log.grant("sem", who)
        elif kind == "release":
            prims.sem.release()
        elif kind == "wait":
            log.arrive("flag", who)
            yield prims.flag.wait()
            log.grant("flag", who)
        elif kind == "set":
            prims.flag.set(who)
        else:
            prims.flag.clear()


class StepActor(Event):
    """The same actor as a chain: each wait pushes its next step, and it
    holds the resource as itself."""

    def __init__(self, env, prims, aid, ops, log):
        super().__init__(env)
        self.prims, self.aid, self.ops, self.log = prims, aid, ops, log
        self.i = 0
        env.start(self._run)

    def _run(self, _value):
        prims, log = self.prims, self.log
        while self.i < len(self.ops):
            op, who = self.ops[self.i], (self.aid, self.i)
            kind = op[0]
            if kind == "sleep":
                self.i += 1
                self.env.call_later(op[1], self._run)
                return
            if kind == "hold":
                log.arrive("res", who)
                prims.res._do_request(self._held)
                return
            if kind == "put":
                log.arrive("put", who)
                prims.store._do_put(self._granted, who)
                return
            if kind == "get":
                log.arrive("get", who)
                prims.store._do_get(self._got)
                return
            if kind == "acquire":
                log.arrive("sem", who)
                prims.sem._do_acquire(self._granted)
                return
            if kind == "wait":
                log.arrive("flag", who)
                prims.flag._do_wait(self._granted)
                return
            if kind == "release":
                prims.sem.release()
            elif kind == "set":
                prims.flag.set(who)
            else:
                prims.flag.clear()
            self.i += 1
        self.succeed()

    def _who(self):
        return self.aid, self.i

    def _held(self, _value):
        self.log.grant("res", self._who())
        self.env.call_later(self.ops[self.i][1], self._release)

    def _release(self, _value):
        self.prims.res._do_release(self)
        self.i += 1
        self._run(None)

    def _granted(self, _value):
        kind = {"put": "put", "acquire": "sem", "wait": "flag"}[self.ops[self.i][0]]
        self.log.grant(kind, self._who())
        self.i += 1
        self._run(None)

    def _got(self, item):
        self.log.items.append(item)
        self.log.grant("get", self._who())
        self.i += 1
        self._run(None)


def play(actors, res_cap, store_cap, permits, all_events):
    """Run one scenario; returns its log and the popped heap entries'
    ``(time, priority, eid)``."""
    env = Environment()
    prims = Prims(env, res_cap, store_cap, permits)
    log = Log()
    for aid, (as_step, ops) in enumerate(actors):
        if as_step and not all_events:
            StepActor(env, prims, aid, ops, log)
        else:
            env.process(event_actor(env, prims, aid, ops, log))
    pops = []
    plain_pop = core.heappop

    def recording_pop(queue):
        entry = plain_pop(queue)
        pops.append(entry[:3])
        return entry

    with mock.patch.object(core, "heappop", recording_pop):
        env.run()
    return log, pops


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    actors=ACTORS,
    res_cap=st.integers(1, 3),
    store_cap=st.integers(1, 3),
    permits=st.integers(0, 1),
)
def test_mixed_waiters_are_granted_fifo_as_events_would_be(
    actors, res_cap, store_cap, permits
):
    log, pops = play(actors, res_cap, store_cap, permits, all_events=False)
    for kind, granted in log.granted.items():
        # strict FIFO: the grants are the first arrivals, in order
        assert granted == log.arrived[kind][: len(granted)]
    # the store hands items on in the order it accepted them
    accepted = log.granted.get("put", [])
    assert log.items == accepted[: len(log.items)]

    events_log, events_pops = play(actors, res_cap, store_cap, permits, all_events=True)
    assert pops == events_pops
    assert (log.arrived, log.granted, log.items) == (
        events_log.arrived, events_log.granted, events_log.items
    )
