"""FIFO item stores for producer/consumer pipelines.

A :class:`Store` carries discrete items between simulated activities —
the BigKernel pipeline's stages hand their chunks on through bounded
stores. A putter or a getter is either an event (``put()``/``get()``) or a
chain's step (:meth:`Store._do_put`/:meth:`Store._do_get`); each side
waits in one FIFO queue whatever its kind, and every hand-off goes through
:meth:`~repro.sim.core.Environment.grant`.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.errors import SimulationError
from repro.sim.core import PENDING, Environment, Event


class StorePut(Event):
    """Fires once the item has been accepted by the store."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        # Event.__init__, flattened; an immediate hand-off is pushed
        # inline by Event.succeed inside _do_put
        self.env = store.env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.item = item
        store._do_put(self, item)


class StoreGet(Event):
    """Fires with the retrieved item as its value."""

    __slots__ = ()

    def __init__(self, store: "Store"):
        self.env = store.env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        store._do_get(self)


class Store:
    """Bounded FIFO queue of items with blocking put/get waiters."""

    def __init__(self, env: Environment, capacity: float = float("inf"), name: str = ""):
        if capacity <= 0:
            raise SimulationError(f"store capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name or f"store@{id(self):#x}"
        self.items: deque[Any] = deque()
        #: blocked ``(putter, item)`` pairs, in arrival order
        self._putters: deque[tuple[Any, Any]] = deque()
        #: blocked getters, in arrival order
        self._getters: deque[Any] = deque()

    @property
    def level(self) -> int:
        """Number of items currently held."""
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Offer ``item``; the returned event fires when accepted."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Request one item; the returned event fires with the item."""
        return StoreGet(self)

    # -- internals ----------------------------------------------------------
    def _do_put(self, putter: Any, item: Any) -> None:
        """Offer ``item`` for ``putter``, a :class:`StorePut` or a chain's
        step, which is granted (with None) once the store accepts it."""
        grant = self.env.grant
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            grant(self._getters.popleft(), item)
            grant(putter)
        elif len(self.items) < self.capacity:
            self.items.append(item)
            grant(putter)
        else:
            self._putters.append((putter, item))

    def _do_get(self, getter: Any) -> None:
        """Take the oldest item for ``getter``, a :class:`StoreGet` or a
        chain's step, which is granted with the item."""
        grant = self.env.grant
        if self.items:
            grant(getter, self.items.popleft())
            # Space freed: admit the oldest blocked putter.
            if self._putters:
                putter, item = self._putters.popleft()
                self.items.append(item)
                grant(putter)
        elif self._putters:
            putter, item = self._putters.popleft()
            grant(getter, item)
            grant(putter)
        else:
            self._getters.append(getter)
