"""Counted resources with FIFO queuing.

A :class:`Resource` models a device that at most ``capacity`` processes may
hold at once — the PCIe link, a DMA engine channel, a CPU core, the GPU's
SM array. Requests are granted strictly in arrival order, which keeps the
in-order DMA property the BigKernel synchronization protocol relies on.
A holder releases its unit by leaving the request's ``with`` block (a
callback-driven holder such as a DMA calls :meth:`Resource._do_release`);
a release is not an event, since nothing waits on it.
"""

from __future__ import annotations

from collections import deque

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
        self._users: list[Request] = []
        self._waiting: deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of current holders."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for the resource."""
        return len(self._waiting)

    def request(self) -> Request:
        """Ask for one unit of the resource; yield the returned event."""
        return Request(self)

    # -- internals ----------------------------------------------------------
    def _do_request(self, request: Request) -> None:
        if len(self._users) < self.capacity and not self._waiting:
            self._users.append(request)
            request.succeed(None)
        else:
            self._waiting.append(request)

    def _do_release(self, request: Request) -> None:
        if request in self._users:
            self._users.remove(request)
        elif request in self._waiting:
            # Releasing an ungranted request simply withdraws it.
            self._waiting.remove(request)
            return
        else:
            raise SimulationError(
                f"release of a request that does not hold {self.name!r}"
            )
        while self._waiting and len(self._users) < self.capacity:
            nxt = self._waiting.popleft()
            self._users.append(nxt)
            nxt.succeed(None)
