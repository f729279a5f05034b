"""Host-speed probe and the reference clock the benchmark times with.

On a shared host the same code runs up to twice as slowly while neighbours
are busy, in stretches of a second to several minutes, so two runs of one
commit a minute apart can differ by a third in every raw timing.  The
benchmark therefore times every call with a :class:`ReferenceClock`:
between calls it runs a fixed probe (no repro code, so no change to the
program moves it) and lets one wall second count ``1 / factor`` reference
seconds, where ``factor`` is how much slower the probe ran than on the
reference host.

The probe has two halves, because busy neighbours slow the two kinds of
work the program does by different amounts: a pure-Python loop (the
interpreter-bound part: the DES, scheduling, bookkeeping) and a sum over an
8 MiB array (the NumPy part: functional passes, dataset generation).  The
factor is the mean of the two halves' slowdowns.

The probe runs between the program's calls, on the same thread, so it
also slows down when the *program* keeps work running beside that thread
(threads holding the interpreter lock, workers on the same core).  The
report prints the median factor of each run so such a change shows.
"""

from __future__ import annotations

import time

import numpy as np

#: iterations of the interpreter loop
LOOP_ITERATIONS = 3000
#: float64 elements the streaming half sums (8 MiB)
STREAM_ELEMENTS = 1 << 20
#: best-of-three time of each half on the reference host (2-vCPU Intel Xeon
#: VM at 2.1 GHz, Python 3.11, NumPy 2.4) while no neighbour slowed it
LOOP_REFERENCE_S = 350e-6
STREAM_REFERENCE_S = 400e-6
#: wall seconds between probes of a :class:`ReferenceClock`
PROBE_PERIOD_S = 0.05

_STREAM = np.arange(STREAM_ELEMENTS, dtype=np.float64)


def _loop() -> float:
    start = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(LOOP_ITERATIONS):
        table[i & 255] = acc
        acc += i * 3 + table.get(i & 127, 0) % 7
    return time.perf_counter() - start


def _stream() -> float:
    start = time.perf_counter()
    _STREAM.sum()
    return time.perf_counter() - start


def probe() -> float:
    """How many times slower than the reference host this host runs now.

    Each half takes the best of three runs, so an interrupt inside one of
    them does not count.
    """
    loop = min(_loop() for _ in range(3)) / LOOP_REFERENCE_S
    stream = min(_stream() for _ in range(3)) / STREAM_REFERENCE_S
    return (loop + stream) / 2.0


class ReferenceClock:
    """Time in reference seconds; call it like ``time.perf_counter``.

    Between two probes one wall second counts ``1 / factor`` reference
    seconds, ``factor`` being the latest probe's.  :meth:`tick` probes
    again once the latest probe is ``period`` wall seconds old.  Call it
    only between timed calls: the probe's own time is left out of the
    clock.
    """

    def __init__(self, period: float = PROBE_PERIOD_S, probe=probe):
        self.period = period
        self._probe = probe
        #: every factor probed, in order
        self.factors: list = []
        self._ref = 0.0
        self._recalibrate()

    def _recalibrate(self) -> None:
        self.factor = self._probe()
        self.factors.append(self.factor)
        self._anchor = time.perf_counter()

    def __call__(self) -> float:
        return self._ref + (time.perf_counter() - self._anchor) / self.factor

    def tick(self) -> None:
        """Probe again if the latest probe is older than ``period``."""
        if time.perf_counter() - self._anchor >= self.period:
            self._ref = self()
            self._recalibrate()
