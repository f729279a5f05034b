"""PCIe link and DMA-engine model.

The link is full duplex: host-to-device and device-to-host directions are
independent resources. Each direction has a FIFO DMA queue, which preserves
the *in-order transfer* property BigKernel's synchronization exploits: the
completion flag DMAed right after a data buffer cannot arrive before the
data (Section IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import DmaFaultError, HardwareError
from repro.hw.spec import PcieSpec
from repro.sim.core import PENDING, Environment, Event, Initialize
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

    def _attempt_time(self, req: TransferRequest) -> float:
        """Duration of one DMA attempt, honouring any injected degradation
        in effect at its start (clean path: identical to transfer_time)."""
        if self.faults is not None:
            return self.faults.transfer_time(
                self.spec, req.nbytes, req.pinned, req.segments, self.env.now
            )
        return self.transfer_time(req.nbytes, req.pinned, req.segments)


class Transfer(Event):
    """One DMA on a :class:`PcieLink`: an event that drives itself.

    A chain of callbacks instead of a simulated process, because the DMA is
    the most-repeated action on the timeline. Each step runs when the event
    it waits on pops, and pushes the same heap entries, at the same moments
    and with the same priorities, as a generator process doing the same:

    1. the start (the URGENT entry of :class:`~repro.sim.core.Initialize`)
       requests the direction's channel;
    2. the grant starts an attempt timeout;
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
    """

    __slots__ = ("link", "req", "_detached", "_grant", "_start", "_outcome", "_tries")

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
        Initialize(env, self._begin)

    def _begin(self, _event: Event) -> None:
        grant = self.link._channels[self.req.direction].request()
        grant.callbacks.append(self._granted)
        self._grant = grant

    def _granted(self, _event: Event) -> None:
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

    def _attempt(self, then: Callable[[Event], None]) -> None:
        """Start one DMA attempt; ``then`` runs when it ends."""
        self._start = self.env.now
        self.env.timeout(self.link._attempt_time(self.req)).callbacks.append(then)

    def _failed(self, _event: Event) -> None:
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
            self.env.timeout(backoff).callbacks.append(self._retry)
        else:
            self._retry(None)

    def _retry(self, _event: Optional[Event]) -> None:
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
            self.link._channels[req.direction]._do_release(self._grant)
            self.fail(error)
        else:
            self._attempt(self._landed)

    def _landed(self, _event: Event) -> None:
        link, req = self.link, self.req
        link.bytes_moved[req.direction] += req.nbytes
        link.transfer_count[req.direction] += 1
        if link.trace is not None:
            link.trace.record(
                f"pcie-{req.direction}",
                req.label,
                self._start,
                self.env.now,
                nbytes=req.nbytes,
                pinned=req.pinned,
                **req.meta,
            )
        link._channels[req.direction]._do_release(self._grant)
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
        return self.link.transfer(
            TransferRequest(nbytes, direction, pinned, label, segments, meta=meta)
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
        data_done = self.link.transfer(
            TransferRequest(nbytes, direction, pinned, label, segments, meta=meta),
            detached=True,
        )
        self.link.transfer(
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
            detached=True,
        )
        return data_done
