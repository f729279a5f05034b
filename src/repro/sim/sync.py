"""Synchronization primitives mirroring the paper's mechanisms.

The paper (Section IV-C) notes that CPU<->GPU signalling is limited to
memory flags plus busy-waiting, and that GPU-side threads synchronize with
the efficient ``bar.red`` barrier instruction. :class:`Flag` models the
memory flag on the simulated timeline, and :class:`Semaphore` the buffer
ring's reuse bound. The cost of polling a flag and of the ``bar.red``
barriers is not simulated: it is priced analytically, as the
``sync_overhead`` that ``BigKernelEngine.pipe_config`` adds to every
compute stage.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.errors import SimulationError
from repro.sim.core import Environment, Event


class Flag:
    """A memory flag one side sets and the other busy-waits on.

    Re-armable: after :meth:`clear` the flag can be set again, which is how
    the per-chunk ready flags in the pipeline are reused. A waiter is an
    event (:meth:`wait`) or a chain's step (:meth:`_do_wait`); both wait in
    one FIFO queue.
    """

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name or f"flag@{id(self):#x}"
        self._set = False
        self._value: Any = None
        self._waiters: deque[Any] = deque()

    @property
    def is_set(self) -> bool:
        return self._set

    def set(self, value: Any = None) -> None:
        """Set the flag, waking every current waiter."""
        self._set = True
        self._value = value
        waiters = self._waiters
        while waiters:
            self.env.grant(waiters.popleft(), value)

    def clear(self) -> None:
        """Re-arm the flag for the next chunk iteration."""
        self._set = False
        self._value = None

    def wait(self) -> Event:
        """Event that fires when (or immediately if) the flag is set."""
        ev = Event(self.env)
        self._do_wait(ev)
        return ev

    def _do_wait(self, waiter: Any) -> None:
        """Wake ``waiter``, an event or a chain's step, with the flag's
        value once it is set (now, if it is)."""
        if self._set:
            self.env.grant(waiter, self._value)
        else:
            self._waiters.append(waiter)


class Semaphore:
    """Counting semaphore used for bounded buffer-ring occupancy.

    The BigKernel buffer instances form a ring: a stage may not produce into
    buffer slot *n* before the consumer of slot *n - depth* has finished.
    That is exactly ``acquire``/``release`` on a semaphore initialized to
    the ring depth. A waiter is an event (:meth:`acquire`) or a chain's
    step (:meth:`_do_acquire`); both wait in one FIFO queue.
    """

    def __init__(self, env: Environment, value: int, name: str = ""):
        if value < 0:
            raise SimulationError(f"semaphore value must be >= 0, got {value}")
        self.env = env
        self.name = name or f"semaphore@{id(self):#x}"
        self._value = value
        self._waiters: deque[Any] = deque()

    @property
    def value(self) -> int:
        return self._value

    def acquire(self) -> Event:
        """Take one permit; fires when a permit is available."""
        ev = Event(self.env)
        self._do_acquire(ev)
        return ev

    def _do_acquire(self, waiter: Any) -> None:
        """Grant ``waiter``, an event or a chain's step, a permit now or
        once one is released."""
        if self._value > 0:
            self._value -= 1
            self.env.grant(waiter)
        else:
            self._waiters.append(waiter)

    def release(self, n: int = 1) -> None:
        """Return ``n`` permits, waking blocked acquirers FIFO."""
        if n < 1:
            raise SimulationError(f"release count must be >= 1, got {n}")
        for _ in range(n):
            if self._waiters:
                self.env.grant(self._waiters.popleft())
            else:
                self._value += 1
