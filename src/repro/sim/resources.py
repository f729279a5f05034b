"""Counted resources with FIFO queuing.

A :class:`Resource` models a device that at most ``capacity`` holders may
hold at once — the PCIe link, a DMA engine channel, a CPU core, the GPU's
SM array. Requests are granted strictly in arrival order, which keeps the
in-order DMA property the BigKernel synchronization protocol relies on.

A waiter is either a :class:`Request` (``request()``, which a process
yields and which holds the unit it is granted) or a chain's step (a
bound method passed to :meth:`Resource._do_request`, whose object holds
the unit as itself). Both kinds wait in one FIFO queue and are granted by
one routine. A holder releases its unit by leaving the request's ``with``
block, or by :meth:`Resource._do_release` with itself; a release is not
an event, since nothing waits on it.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.errors import SimulationError
from repro.sim.core import PENDING, Environment, Event


class Request(Event):
    """Event that fires once the resource has been acquired.

    Usable as a context manager so the resource is released even if the
    holding process fails::

        with res.request() as req:
            yield req
            yield env.timeout(cost)

    Leaving the block releases the resource and pushes nothing onto the
    heap.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        # Event.__init__, flattened; an immediate grant is pushed inline
        # by Event.succeed inside _do_request
        self.env = resource.env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.resource = resource
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.resource._do_release(self)


class Resource:
    """A shared resource with integer capacity and FIFO granting."""

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name or f"resource@{id(self):#x}"
        #: current holders: granted requests, and chains holding as themselves
        self._users: list[Any] = []
        #: requests and steps waiting, in arrival order
        self._waiting: deque[Any] = deque()

    @property
    def count(self) -> int:
        """Number of current holders."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of waiters for the resource."""
        return len(self._waiting)

    def request(self) -> Request:
        """Ask for one unit of the resource; yield the returned event."""
        return Request(self)

    # -- internals ----------------------------------------------------------
    def _do_request(self, waiter: Any) -> None:
        """Queue ``waiter``, a :class:`Request` or a chain's step, and grant
        it at once if a unit is free and nobody waits."""
        if len(self._users) < self.capacity and not self._waiting:
            self._grant(waiter)
        else:
            self._waiting.append(waiter)

    def _grant(self, waiter: Any) -> None:
        """Give ``waiter`` a unit: a request holds it, a step's chain holds
        it as itself."""
        self._users.append(
            waiter if isinstance(waiter, Event) else waiter.__self__
        )
        self.env.grant(waiter)

    def _do_release(self, holder: Any) -> None:
        """Return ``holder``'s unit (a request withdraws if still waiting)
        and grant the freed units FIFO."""
        if holder in self._users:
            self._users.remove(holder)
        elif holder in self._waiting:
            # Releasing an ungranted request simply withdraws it.
            self._waiting.remove(holder)
            return
        else:
            raise SimulationError(
                f"release of a request that does not hold {self.name!r}"
            )
        while self._waiting and len(self._users) < self.capacity:
            self._grant(self._waiting.popleft())
