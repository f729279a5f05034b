"""FIFO item stores for producer/consumer pipelines.

A :class:`Store` carries discrete items between simulated processes — the
BigKernel pipeline uses stores as the hand-off points between stages when a
model wants queue semantics rather than raw flag signalling.
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
        store._do_put(self)


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
    """Bounded FIFO queue of items with blocking put/get events."""

    def __init__(self, env: Environment, capacity: float = float("inf"), name: str = ""):
        if capacity <= 0:
            raise SimulationError(f"store capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name or f"store@{id(self):#x}"
        self.items: deque[Any] = deque()
        self._putters: deque[StorePut] = deque()
        self._getters: deque[StoreGet] = deque()

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
    def _do_put(self, event: StorePut) -> None:
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            getter = self._getters.popleft()
            getter.succeed(event.item)
            event.succeed(None)
        elif len(self.items) < self.capacity:
            self.items.append(event.item)
            event.succeed(None)
        else:
            self._putters.append(event)

    def _do_get(self, event: StoreGet) -> None:
        if self.items:
            event.succeed(self.items.popleft())
            # Space freed: admit the oldest blocked putter.
            if self._putters:
                putter = self._putters.popleft()
                self.items.append(putter.item)
                putter.succeed(None)
        elif self._putters:
            putter = self._putters.popleft()
            event.succeed(putter.item)
            putter.succeed(None)
        else:
            self._getters.append(event)
