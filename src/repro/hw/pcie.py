"""PCIe link and DMA-engine model.

The link is full duplex: host-to-device and device-to-host directions are
independent resources. Each direction has a FIFO DMA queue, which preserves
the *in-order transfer* property BigKernel's synchronization exploits: the
completion flag DMAed right after a data buffer cannot arrive before the
data (Section IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from repro.errors import DmaFaultError, HardwareError
from repro.hw.spec import PcieSpec
from repro.sim.core import Environment, Event
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

    def transfer(self, req: TransferRequest, detached: bool = False) -> Event:
        """Enqueue ``req`` on its direction's DMA engine.

        Returns the process event; it succeeds (with the request) when the
        DMA completes. FIFO ordering per direction is guaranteed by the
        underlying resource. ``detached=True`` promises that nothing waits
        on that event after the DMA lands (a flag signals completion
        instead), so it completes without a heap trip.
        """
        return self.env.process(self._do_transfer(req), detached)

    def _attempt_time(self, req: TransferRequest) -> float:
        """Duration of one DMA attempt, honouring any injected degradation
        in effect at its start (clean path: identical to transfer_time)."""
        if self.faults is not None:
            return self.faults.transfer_time(
                self.spec, req.nbytes, req.pinned, req.segments, self.env.now
            )
        return self.transfer_time(req.nbytes, req.pinned, req.segments)

    def _do_transfer(self, req: TransferRequest) -> Generator:
        channel = self._channels[req.direction]
        inj = self.faults
        with channel.request() as grant:
            yield grant
            # Injected DMA errors: the failed attempts and their backoffs
            # run while the channel grant is held — releasing it would let
            # the trailing completion-flag DMA overtake the data on the
            # FIFO, breaking the in-order trick of Section IV-C.
            outcome = None
            if inj is not None and not req.label.endswith("-flag"):
                outcome = inj.dma_outcome(
                    req.label, req.direction, req.meta.get("chunk")
                )
            if outcome is not None:
                for attempt, backoff in enumerate(outcome.backoffs, start=1):
                    start = self.env.now
                    yield self.env.timeout(self._attempt_time(req))
                    self.bytes_retried[req.direction] += req.nbytes
                    inj.note_retry()
                    if self.trace is not None:
                        # a distinct label and no ``nbytes`` key keep the
                        # byte-conservation checkers honest: failed attempts
                        # deliver nothing
                        self.trace.record(
                            f"pcie-{req.direction}",
                            f"{req.label}-retry",
                            start,
                            self.env.now,
                            retry=True,
                            attempt=attempt,
                            discarded=req.nbytes,
                            **req.meta,
                        )
                    if backoff > 0:
                        yield self.env.timeout(backoff)
                if outcome.fatal:
                    inj.note_fatal()
                    raise DmaFaultError(
                        f"DMA {req.label!r} (chunk {req.meta.get('chunk')}, "
                        f"{req.direction}) failed permanently after "
                        f"{len(outcome.backoffs)} attempt(s)"
                    )
            start = self.env.now
            yield self.env.timeout(self._attempt_time(req))
            self.bytes_moved[req.direction] += req.nbytes
            self.transfer_count[req.direction] += 1
            if self.trace is not None:
                self.trace.record(
                    f"pcie-{req.direction}",
                    req.label,
                    start,
                    self.env.now,
                    nbytes=req.nbytes,
                    pinned=req.pinned,
                    **req.meta,
                )
        if req.completion_flag is not None:
            req.completion_flag.set(req)
        return req


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
        Both DMA processes are detached: wait on ``flag``, which is how the
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
