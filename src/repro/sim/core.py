"""Core discrete-event machinery: environment, events, processes.

The design follows SimPy's architecture (events with callback lists, a heap
of scheduled events, generator-based processes) but is intentionally small:
only the features the BigKernel pipeline model needs are implemented, and
each of those features is tested directly. The pipeline
(``repro.runtime.pipeline``, ``repro.runtime.multigpu``), the PCIe link and
the UVM engine run no :class:`Process`: each of their activities is a
*chain* of steps (below). Processes, :class:`AllOf` and the event API stay
for tests and user code.

Determinism: ties in time are broken first by entry *priority* (``URGENT``
before ``NORMAL``) and then by push order, so repeated runs of the same
model produce identical timelines.

Performance: this module is the simulator's hot loop. DES-bound workloads
(sweeps, traced, verified or faulted runs) spend most of their wall-clock
inside :meth:`Environment.run`, so a simulated chunk should cost its heap
entries and little else. :class:`Timeout` and :meth:`Event.succeed` push
their entries inline, with no call through :meth:`Environment.schedule`.

**A heap entry carries the code it runs.** An entry is ``(time, priority,
eid, step, value)``. Popping it sets the clock to ``time`` and calls
``step(value)``. An event is pushed as ``(time, priority, eid, None,
event)``, and the loop fires it inline, as an event loop with no steps
would: its callbacks run with the event, and a failure nothing handled
raises out of :meth:`Environment.run`. ``_eid`` counts pushes; it is the
tie-break, so no comparison ever reaches a step.

**A chain waits without an event.** A chain is one of the models'
callback-driven activities (a pipeline stage, a DMA, UVM's kernel and its
page migrations); a step is its next bound method. Every wait a chain
makes pushes its next step, directly or when the wait is granted:

* its start is :meth:`Environment.start`, an URGENT entry ahead of the
  same-time NORMAL ones (a :class:`Process` starts the same way);
* a delay is :meth:`Environment.call_later`, the entry a
  :class:`Timeout` would push, with no :class:`Timeout`;
* a resource grant, a store hand-off, a semaphore permit and a flag
  wake-up go through the primitive's waiter queue (below), which pushes
  the step at the grant, with the granted value.

Each wait pushes the entry a generator process doing the same pushed, at
the same moment, with the same priority and the next ``_eid``, so the
entries keep their ``(time, priority, eid)`` order and no timeline moves;
it just builds no event, callbacks list or generator frame for it. Waits
that more than one party may see stay events: a DMA
(:class:`~repro.hw.pcie.Transfer`, which UVM joins after it lands), and
each chain's own completion, whose NORMAL entry raises a failed DMA out of
:meth:`Environment.run`.

**One waiter queue per primitive.** :class:`~repro.sim.resources.Resource`,
:class:`~repro.sim.stores.Store`, :class:`~repro.sim.sync.Semaphore` and
:class:`~repro.sim.sync.Flag` each queue their waiters FIFO in one queue,
whatever their kind, and wake each through :meth:`Environment.grant`: an
event from the ``request()``/``get()``/``put()``/``acquire()``/``wait()``
API is succeeded at its grant, and a step is pushed with the granted
value. So grants are FIFO across both kinds.

**Nothing kept alive.** A step is a bound method held only while its entry
is queued or it waits in a primitive. No chain keeps its own bound methods
on itself: that would be a reference cycle, and a finished run's trace
would wait for the cyclic collector instead of dying with the result.

**Unobservable events stay off the heap.** A resource is released without
an entry (nothing could wait on one), and a *detached* DMA that lands with
no waiter completes in place: its value is set and it is marked processed
without a push. The DMA engine detaches the two transfers of a flagged
copy, whose consumer waits on the flag, never on them. Dropping an entry
that runs nothing cannot reorder the others
(``tests/test_sim_golden_trace.py`` pins the interval order and the popped
``(time, priority, eid)`` sequence of every DES user, and
``tests/test_calibration_lock.py`` the calibrated times).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError

#: Sentinel for "event has not yet been given a value".
PENDING = object()

#: Priority for entries that must run before same-time normal ones (the
#: start of a chain or a process).
URGENT = 0
#: Default entry priority.
NORMAL = 1

#: A step: called with the value its entry carries.
Step = Callable[[Any], None]


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
        heappush(env._queue, (env._now, NORMAL, eid, None, self))
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
        # Flattened Event.__init__ + env.schedule: the heap entry below is
        # identical to what schedule() would push (same _eid sequence,
        # same tuple).
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        eid = env._eid + 1
        env._eid = eid
        _heappush(env._queue, (env._now + delay, _NORMAL, eid, None, self))


class _Started:
    """What a process's first resume reads: a success with no value."""

    __slots__ = ()
    _ok = True
    _value = None


_STARTED = _Started()


class Process(Event):
    """A running simulated activity, driven by a generator.

    The process *is* an event: it triggers with the generator's return value
    when the generator finishes, so other processes can ``yield proc`` to
    join on it. It starts by a step, the URGENT entry of
    :meth:`Environment.start`.
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
        env.start(self._resume_cb, _STARTED)
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
    """Owns the simulated clock and the pending entry heap."""

    __slots__ = ("_now", "_queue", "_eid")

    def __init__(self):
        self._now = 0.0
        #: ``(time, priority, eid, step, value)`` entries; ``step`` is None
        #: for an event, which is then the value
        self._queue: list[tuple[float, int, int, Optional[Step], Any]] = []
        #: heap pushes so far: the next entry's tie-break
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
        heappush(self._queue, (self._now + delay, priority, self._eid, None, event))

    def start(self, step: Step, value: Any = None) -> None:
        """Run ``step(value)`` now, ahead of the same-time NORMAL entries:
        how a chain or a process starts."""
        eid = self._eid + 1
        self._eid = eid
        heappush(self._queue, (self._now, URGENT, eid, step, value))

    def call_later(self, delay: float, step: Step, value: Any = None) -> None:
        """Run ``step(value)`` ``delay`` seconds from now: how a chain
        waits out a delay, with the entry a :class:`Timeout` of that delay
        would push."""
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        eid = self._eid + 1
        self._eid = eid
        heappush(self._queue, (self._now + delay, NORMAL, eid, step, value))

    def grant(self, waiter: Any, value: Any = None) -> None:
        """Wake ``waiter`` now with ``value``: succeed it if it is an event,
        push it if it is a step. Every primitive grants through here."""
        if isinstance(waiter, Event):
            waiter.succeed(value)
            return
        eid = self._eid + 1
        self._eid = eid
        heappush(self._queue, (self._now, NORMAL, eid, waiter, value))

    def run(self) -> None:
        """Run entries in ``(time, priority, eid)`` order until the heap
        drains.

        An event that fails with nothing to handle its failure raises out
        of ``run``.
        """
        queue = self._queue  # bound to a local: this is the hot loop
        while queue:
            self._now, _, _, step, event = heappop(queue)
            if step is not None:
                step(event)
                continue
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                raise event._value
