"""Discrete-event simulation engine.

A minimal SimPy-like kernel purpose-built for this reproduction. A heap
entry carries the code it runs: popping ``(time, priority, eid, step,
value)`` calls ``step(value)``, and an event (pushed with no step) runs
its callbacks. The BigKernel pipeline's stages, the DMA engine, the PCIe
link and the UVM engine are *chains*: callback-driven activities whose
every wait (a delay, a resource grant, a store hand-off, a ring permit, a
flag) pushes the chain's next step, with no event built for it. They
compete for :class:`~repro.sim.resources.Resource` objects on one shared
timeline, and a run goes until no entry is left. Each primitive keeps one
FIFO waiter queue for both kinds of waiter, so events and steps are
granted in arrival order. Simulated *processes*, Python generators that
``yield`` events and are resumed when those events fire, stay for tests
and user code::

    from repro.sim import Environment, Resource, Store, Flag, Semaphore

    env = Environment()

    def worker(env, link):
        with link.request() as req:
            yield req
            yield env.timeout(1.5)     # hold the link for 1.5 simulated seconds

    link = Resource(env, capacity=1)
    env.process(worker(env, link))
    env.run()
"""

from repro.sim.core import (
    Environment,
    Event,
    Timeout,
    Process,
    AllOf,
    PENDING,
    URGENT,
    NORMAL,
)
from repro.sim.resources import Resource, Request
from repro.sim.stores import Store, StorePut, StoreGet
from repro.sim.sync import Flag, Semaphore
from repro.sim.trace import TraceRecorder, Interval

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "PENDING",
    "URGENT",
    "NORMAL",
    "Resource",
    "Request",
    "Store",
    "StorePut",
    "StoreGet",
    "Flag",
    "Semaphore",
    "TraceRecorder",
    "Interval",
]
