"""Generator-based discrete-event simulation engine.

A minimal SimPy-like kernel purpose-built for this reproduction: simulated
*processes* are Python generators that ``yield`` events (timeouts, resource
requests, store gets, flag waits, semaphore acquires, ``all_of``) and are
resumed by the environment when those events fire. The BigKernel pipeline,
the DMA engine, the PCIe link and the GPU/CPU compute stages are all
modelled as processes and callback chains competing for
:class:`~repro.sim.resources.Resource` objects on one shared timeline; a
run goes until no event is left.

Public surface::

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
