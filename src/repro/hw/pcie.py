"""PCIe link and DMA-engine model.

The link is full duplex: host-to-device and device-to-host directions are
independent resources. Each direction has a FIFO DMA queue, which preserves
the *in-order transfer* property BigKernel's synchronization exploits: the
completion flag DMAed right after a data buffer cannot arrive before the
data (Section IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import DmaFaultError, HardwareError
from repro.hw.spec import PcieSpec
from repro.sim.core import PENDING, Environment, Event, Step
from repro.sim.resources import Resource
from repro.sim.sync import Flag
from repro.sim.trace import TraceRecorder

H2D = "h2d"
D2H = "d2h"


@dataclass
class TransferRequest:
    """One DMA job."""

    nbytes: int
    direction: str = H2D
    pinned: bool = True
    label: str = "xfer"
    #: physical DMAs this logical transfer comprises (per-block buffers)
    segments: int = 1
    #: flag to set when the transfer (and everything queued before it on the
    #: same direction) has completed — the paper's trailing flag-copy trick.
    completion_flag: Optional[Flag] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.direction not in (H2D, D2H):
            raise HardwareError(f"direction must be '{H2D}' or '{D2H}'")
        if self.nbytes < 0:
            raise HardwareError("transfer size must be non-negative")


class PcieLink:
    """Simulated full-duplex PCIe link with one FIFO DMA queue per direction."""

    def __init__(
        self,
        env: Environment,
        spec: PcieSpec,
        trace: Optional[TraceRecorder] = None,
        faults=None,
    ):
        self.env = env
        self.spec = spec
        self.trace = trace
        #: optional :class:`~repro.faults.inject.FaultInjector`
        self.faults = faults
        self._channels = {
            H2D: Resource(env, capacity=1, name="pcie-h2d"),
            D2H: Resource(env, capacity=1, name="pcie-d2h"),
        }
        self.bytes_moved = {H2D: 0, D2H: 0}
        self.transfer_count = {H2D: 0, D2H: 0}
        #: bytes burnt by failed (retried) DMA attempts — deliberately kept
        #: out of ``bytes_moved``, which counts delivered payload only
        self.bytes_retried = {H2D: 0, D2H: 0}

    def transfer_time(
        self, nbytes: int, pinned: bool = True, segments: int = 1
    ) -> float:
        """Pure duration of one logical transfer, without queueing."""
        return self.spec.transfer_time(nbytes, pinned, segments)

    def transfer(self, req: TransferRequest, detached: bool = False) -> Transfer:
        """Enqueue ``req`` on its direction's DMA engine.

        Returns the :class:`Transfer` event; it succeeds (with the request)
        when the DMA lands. FIFO ordering per direction is guaranteed by the
        underlying resource. ``detached=True`` promises that nothing starts
        waiting on that event after the DMA lands (a flag signals completion
        instead): with no waiter at landing it completes without a heap
        trip, and a waiter already registered is still resumed through the
        heap.
        """
        return Transfer(self, req, detached)


class Transfer(Event):
    """One DMA on a :class:`PcieLink`: an event that drives itself.

    A chain of steps instead of a simulated process, because the DMA is
    the most-repeated action on the timeline. Each wait pushes its next
    step (:mod:`repro.sim.core`), the same heap entry, at the same moment
    and with the same priority, as a generator process doing the same:

    1. the start (an URGENT entry) requests the direction's channel, which
       the transfer holds as itself;
    2. the grant starts an attempt's delay;
    3. each injected failure records its ``-retry`` interval and waits its
       backoff, holding the channel: releasing it would let the trailing
       completion-flag DMA overtake the data on the FIFO, breaking the
       in-order trick of Section IV-C;
    4. a fatal failure releases the channel, then fails the event, so
       :meth:`~repro.sim.core.Environment.run` raises
       :class:`~repro.errors.DmaFaultError`;
    5. landing counts the bytes, records the interval, releases the
       channel, sets the completion flag and then completes: in place when
       the transfer is detached and nothing waits on it, through the heap
       otherwise.

    The transfer stays an event because more than one party may wait on
    it: UVM collects its ``copy_async`` transfers and may join them after
    they land.
    """

    __slots__ = ("link", "req", "_detached", "_start", "_outcome", "_tries")

    def __init__(self, link: PcieLink, req: TransferRequest, detached: bool):
        # Event.__init__, flattened
        env = link.env
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.link = link
        self.req = req
        self._detached = detached
        #: the injected failure schedule (``FaultInjector.dma_outcome``)
        self._outcome = None
        #: failed attempts made so far
        self._tries = 0
        env.start(self._begin)

    def _begin(self, _value) -> None:
        self.link._channels[self.req.direction]._do_request(self._granted)

    def _granted(self, _value) -> None:
        req = self.req
        inj = self.link.faults
        if inj is not None and not req.label.endswith("-flag"):
            self._outcome = inj.dma_outcome(
                req.label, req.direction, req.meta.get("chunk")
            )
        if self._outcome is None:
            self._attempt(self._landed)
        else:
            self._retry(None)

    def _attempt(self, then: Step) -> None:
        """Start one DMA attempt; ``then`` runs when it ends. Its duration
        honours any injected degradation in effect at its start."""
        link, req, env = self.link, self.req, self.env
        self._start = now = env._now
        if link.faults is None:
            duration = link.spec.transfer_time(req.nbytes, req.pinned, req.segments)
        else:
            duration = link.faults.transfer_time(
                link.spec, req.nbytes, req.pinned, req.segments, now
            )
        env.call_later(duration, then)

    def _failed(self, _value) -> None:
        """An injected failure burnt the attempt: record it, then back off."""
        link, req = self.link, self.req
        self._tries += 1
        link.bytes_retried[req.direction] += req.nbytes
        link.faults.note_retry()
        if link.trace is not None:
            # a distinct label and no ``nbytes`` key keep the
            # byte-conservation checkers honest: failed attempts deliver
            # nothing
            link.trace.record(
                f"pcie-{req.direction}",
                f"{req.label}-retry",
                self._start,
                self.env.now,
                retry=True,
                attempt=self._tries,
                discarded=req.nbytes,
                **req.meta,
            )
        backoff = self._outcome.backoffs[self._tries - 1]
        if backoff > 0:
            self.env.call_later(backoff, self._retry)
        else:
            self._retry(None)

    def _retry(self, _value) -> None:
        """After the grant or a failure's backoff: the next failing
        attempt, the fatal end, or the attempt that lands."""
        outcome = self._outcome
        if self._tries < len(outcome.backoffs):
            self._attempt(self._failed)
        elif outcome.fatal:
            req = self.req
            self.link.faults.note_fatal()
            error = DmaFaultError(
                f"DMA {req.label!r} (chunk {req.meta.get('chunk')}, "
                f"{req.direction}) failed permanently after "
                f"{len(outcome.backoffs)} attempt(s)"
            )
            self.link._channels[req.direction]._do_release(self)
            self.fail(error)
        else:
            self._attempt(self._landed)

    def _landed(self, _value) -> None:
        link, req = self.link, self.req
        link.bytes_moved[req.direction] += req.nbytes
        link.transfer_count[req.direction] += 1
        if link.trace is not None:
            link.trace.record(
                f"pcie-{req.direction}",
                req.label,
                self._start,
                self.env._now,
                nbytes=req.nbytes,
                pinned=req.pinned,
                **req.meta,
            )
        link._channels[req.direction]._do_release(self)
        if req.completion_flag is not None:
            req.completion_flag.set(req)
        if self._detached and not self.callbacks:
            # no waiter, and none can come: processed in place
            self._value = req
            self.callbacks = None
        else:
            self.succeed(req)


class DmaEngine:
    """Convenience front end issuing transfers + trailing completion flags.

    Mirrors the CUDA-stream idiom in the paper: ``cudaMemcpyAsync(data)``
    followed by a tiny flag copy that the GPU-side consumer polls.
    """

    def __init__(self, link: PcieLink):
        self.link = link
        self.env = link.env

    def copy_async(
        self,
        nbytes: int,
        direction: str = H2D,
        pinned: bool = True,
        label: str = "xfer",
        segments: int = 1,
        **meta: Any,
    ) -> Event:
        """Queue one logical transfer; returns its completion event."""
        return Transfer(
            self.link,
            TransferRequest(nbytes, direction, pinned, label, segments, meta=meta),
            False,
        )

    def copy_with_flag(
        self,
        nbytes: int,
        flag: Flag,
        direction: str = H2D,
        pinned: bool = True,
        label: str = "xfer",
        flag_bytes: int = 4,
        segments: int = 1,
        **meta: Any,
    ) -> Event:
        """Queue a data DMA immediately followed by a flag-write DMA.

        Because the direction's queue is FIFO, the flag is set only after
        the data transfer has fully landed — the in-order trick from
        Section IV-C. Returns the completion event of the *data* transfer.
        Both transfers are detached: wait on ``flag``, which is how the
        consumer learns the data landed. A process already waiting on the
        returned event when the DMA lands is still resumed through the
        heap; one that starts waiting later finds it processed.
        """
        data_done = Transfer(
            self.link,
            TransferRequest(nbytes, direction, pinned, label, segments, meta=meta),
            True,
        )
        Transfer(
            self.link,
            TransferRequest(
                flag_bytes,
                direction,
                pinned=True,
                label=f"{label}-flag",
                completion_flag=flag,
                # carry the data DMA's identity (chunk/block) so trace
                # checkers can pair each flag with the transfer it chases
                meta=dict(meta),
            ),
            True,
        )
        return data_done
