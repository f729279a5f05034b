"""Core discrete-event machinery: environment, events, processes.

The design follows SimPy's architecture (events with callback lists, a heap
of scheduled events, generator-based processes) but is intentionally small:
only the features the BigKernel pipeline model needs are implemented, and
each of those features is tested directly. The pipeline
(``repro.runtime.pipeline``, ``repro.runtime.multigpu``), the PCIe link and
the UVM engine use completion events, timeouts, :class:`AllOf` and one way
to run: until the heap drains. None of them runs a :class:`Process`: each
of their activities is a chain of callbacks (below). Processes stay for
tests and user code.

Determinism: ties in time are broken first by event *priority* (``URGENT``
before ``NORMAL``) and then by schedule order, so repeated runs of the same
model produce identical timelines.

Performance: this module is the simulator's hot loop. Every chunk of every
pipeline stage turns into a handful of events here, and DES-bound workloads
(sweeps, traced, verified or faulted runs) spend most of their wall-clock
inside :meth:`Environment.run`. Three things keep a chunk cheap:

* **Inline pushes.** Heap entries are pushed where they are made, with
  no call through :meth:`Environment.schedule`: by :class:`Timeout`,
  :meth:`Event.succeed` and :class:`Initialize`.
  The :class:`~repro.sim.resources.Request`,
  :class:`~repro.sim.stores.StorePut` and :class:`~repro.sim.stores.StoreGet`
  constructors flatten ``Event.__init__`` and push an immediate grant or
  hand-off through that inlined ``succeed``. Each push builds the entry
  ``schedule`` would have built, at the same moment.
* **No process where a callback chain will do.** :class:`Initialize`
  takes a start callback: a :class:`Process` passes its resume callback,
  and every activity of the models passes the first step of a chain of
  callbacks: a DMA (:class:`~repro.hw.pcie.Transfer`, the most-repeated
  action on the timeline), each pipeline stage
  (``repro.runtime.pipeline``), and UVM's kernel and page migrations
  (``repro.engines.uvm``). A chain is an event with ``__slots__`` whose
  steps are bound methods; a step runs when the event it waits on pops.
  It pushes exactly the entries a generator process doing the same would
  push (its URGENT start, every event it makes, its NORMAL completion),
  without a generator, its frames or its resumes. A failed DMA fails the
  chain waiting on it, so :meth:`Environment.run` raises at the same pop.
  No chain keeps its own bound methods: one kept on its instance is a
  reference cycle, and the run's trace would wait for the cyclic
  collector instead of dying with the result.
* **Unobservable events stay off the heap.** Popping an event sets the
  clock to its time and runs its callbacks. A succeeded zero-delay event
  that nothing can ever wait on therefore changes nothing when popped,
  and needs no heap trip.
  A resource is released without an event (nothing could wait on one),
  and a *detached* DMA that lands with no waiter completes in place: its
  value is set and it is marked processed without a push. The DMA engine
  detaches the two transfers of a flagged copy, whose consumer waits on
  the flag, never on them.

The invariant is on the heap entries that remain: they keep their
relative ``(time, priority, eid)`` order, because every push still takes
the next ``_eid`` at the moment the straightforward implementation would
have scheduled it. Dropping an entry that runs no callback cannot reorder
the others, so every timeline is unchanged
(``tests/test_sim_golden_trace.py`` pins the interval order of every DES
user, and ``tests/test_calibration_lock.py`` the calibrated times). The
``_eid`` counter counts heap pushes, nothing else.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError

#: Sentinel for "event has not yet been given a value".
PENDING = object()

#: Priority for events that must fire before same-time normal events
#: (the :class:`Initialize` that starts a process or a DMA).
URGENT = 0
#: Default event priority.
NORMAL = 1


class Event:
    """An outcome that will happen at some point in simulated time.

    Events start *pending*; they become *triggered* once given a value (via
    :meth:`succeed` or :meth:`fail`) and scheduled, and *processed* once the
    environment has run their callbacks.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        #: set True once a failure value has been retrieved or handled,
        #: so that run() does not raise it as unhandled
        self._defused: bool = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled to fire."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event is in the past)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only meaningful once triggered."""
        if not self.triggered:
            raise SimulationError(f"{self!r} has no value yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or failure exception) once triggered."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has no value yet")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        # env.schedule(self), inlined: the same entry, pushed now
        env = self.env
        eid = env._eid + 1
        env._eid = eid
        heappush(env._queue, (env._now, NORMAL, eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters will have it raised."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(
        self,
        env: "Environment",
        delay: float,
        value: Any = None,
        _NORMAL: int = NORMAL,
        _heappush: Callable = heappush,
    ):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Flattened Event.__init__ + env.schedule: timeouts are by far the
        # most-constructed event, and the heap entry below is identical to
        # what schedule() would push (same _eid sequence, same tuple).
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        eid = env._eid + 1
        env._eid = eid
        _heappush(env._queue, (env._now + delay, _NORMAL, eid, self))


class Initialize(Event):
    """Internal URGENT event that runs ``start`` now, ahead of same-time
    NORMAL events.

    A :class:`Process` passes its resume callback; a callback-driven
    activity such as :class:`~repro.hw.pcie.Transfer` passes its first step.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", start: Callable[[Event], None]):
        self.env = env
        self.callbacks = [start]
        self._value = None
        self._ok = True
        self._defused = False
        eid = env._eid + 1
        env._eid = eid
        heappush(env._queue, (env._now, URGENT, eid, self))


class Process(Event):
    """A running simulated activity, driven by a generator.

    The process *is* an event: it triggers with the generator's return value
    when the generator finishes, so other processes can ``yield proc`` to
    join on it.
    """

    __slots__ = ("_generator", "name", "_resume_cb")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "throw"):
            raise SimulationError(
                f"process() requires a generator, got {type(generator).__name__}"
            )
        super().__init__(env)
        self._generator = generator
        #: the bound resume callback, created once — appending ``_resume``
        #: directly would allocate a fresh bound method per wait
        self._resume_cb = self._resume
        Initialize(env, self._resume_cb)
        self.name = getattr(generator, "__name__", "process")

    # -- engine internals ---------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        send = self._generator.send
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    event._defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as exc:
                self.succeed(exc.value)
                return
            except BaseException as exc:
                self.fail(exc)
                return

            if not isinstance(next_event, Event):
                exc = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                try:
                    self._generator.throw(exc)
                except BaseException as err:
                    self.fail(err)
                    return
                raise exc  # pragma: no cover - generator swallowed the error

            if next_event.callbacks is not None:
                # Still pending or scheduled: wait for it.
                next_event.callbacks.append(self._resume_cb)
                return
            # Already processed: continue immediately with its value.
            event = next_event


class AllOf(Event):
    """Triggers when every constituent event has succeeded.

    Fails with the first constituent failure. Its value maps each event
    to its value.
    """

    __slots__ = ("events", "_done")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("all condition events must share one environment")
        self._done = 0
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._done += 1
        if self._done == len(self.events):
            self.succeed({ev: ev._value for ev in self.events})


class Environment:
    """Owns the simulated clock and the pending event heap."""

    __slots__ = ("_now", "_queue", "_eid")

    def __init__(self):
        self._now = 0.0
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- factories ----------------------------------------------------------
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def process(self, generator: Generator) -> Process:
        """Register ``generator`` as a new simulated process."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event: all of ``events`` succeed."""
        return AllOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Queue ``event`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._eid += 1
        heappush(self._queue, (self._now + delay, priority, self._eid, event))

    def run(self) -> None:
        """Process events in ``(time, priority, eid)`` order until the
        queue drains.

        An event that fails with nothing to handle its failure raises out
        of ``run``.
        """
        queue = self._queue  # bound to a local: this is the hot loop
        while queue:
            self._now, _, _, event = heappop(queue)
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                raise event._value
