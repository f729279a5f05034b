"""Counted resources with FIFO queuing.

A :class:`Resource` models a device that at most ``capacity`` processes may
hold at once — the PCIe link, a DMA engine channel, a CPU core, the GPU's
SM array. Requests are granted strictly in arrival order, which keeps the
in-order DMA property the BigKernel synchronization protocol relies on.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.errors import SimulationError
from repro.sim.core import PENDING, Environment, Event


class Request(Event):
    """Event that fires once the resource has been acquired.

    Usable as a context manager so the resource is released even if the
    holding process fails::

        with res.request() as req:
            yield req
            yield env.timeout(cost)

    Leaving the block releases the resource without creating a
    :class:`Release`: the block would discard it, so nothing could ever
    wait on it, and it stays off the heap.
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

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request from the wait queue."""
        if self in self.resource._waiting:
            self.resource._waiting.remove(self)


class Release(Event):
    """Event representing a completed release (fires immediately)."""

    __slots__ = ()

    def __init__(self, resource: "Resource", request: Request):
        super().__init__(resource.env)
        resource._do_release(request)
        self.succeed(None)


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

    def release(self, request: Request) -> Release:
        """Give back a unit previously granted to ``request``."""
        return Release(self, request)

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


class PriorityRequest(Request):
    """Request carrying a priority (lower value = more urgent)."""

    __slots__ = ("priority", "_seq")

    def __init__(self, resource: "PriorityResource", priority: int):
        self.priority = priority
        self._seq: Optional[int] = None
        super().__init__(resource)


class PriorityResource(Resource):
    """Resource granting waiters in (priority, arrival) order."""

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        super().__init__(env, capacity, name)
        self._arrivals = 0

    def request(self, priority: int = 0) -> PriorityRequest:  # type: ignore[override]
        return PriorityRequest(self, priority)

    def _do_request(self, request: Request) -> None:
        assert isinstance(request, PriorityRequest)
        self._arrivals += 1
        request._seq = self._arrivals
        if len(self._users) < self.capacity and not self._waiting:
            self._users.append(request)
            request.succeed(None)
        else:
            self._waiting.append(request)
            self._waiting = deque(
                sorted(self._waiting, key=lambda r: (r.priority, r._seq))  # type: ignore[attr-defined]
            )
