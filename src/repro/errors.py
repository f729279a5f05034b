"""Exception hierarchy for the BigKernel reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """Errors raised by the discrete-event simulation engine."""


class HardwareError(ReproError):
    """Errors raised by the hardware cost models."""


class GpuOutOfMemory(HardwareError):
    """A GPU-side allocation exceeded the device's global memory."""


class PinnedMemoryExceeded(HardwareError):
    """CPU-side pinned allocations exceeded the configured host limit."""


class AllocationError(HardwareError):
    """Generic allocator failure (double free, unknown handle, ...)."""


class CompilerError(ReproError):
    """Errors raised by the kernel IR compiler (``repro.kernelc``)."""


class IRValidationError(CompilerError):
    """The kernel IR failed structural validation."""


class SlicingError(CompilerError):
    """The address-generation slice could not be derived.

    The paper's fallback in this situation is to fetch *all* data (degrading
    to double-buffering behaviour); the runtime treats this exception as the
    trigger for that fallback.
    """


class VectorizationError(CompilerError):
    """The kernel cannot be lowered to the vectorized (compiled) backend.

    :func:`~repro.kernelc.compile.compile_kernel` raises it, naming every
    obstruction, on IR that the vectorizability analysis rejects. A launch
    never sees it: it asks :func:`~repro.kernelc.compile.try_compile_kernel`,
    which falls back to the tree-walking interpreter instead.
    """


class RuntimeConfigError(ReproError):
    """Invalid BigKernel runtime configuration (buffer sizes, block counts)."""


class BufferOverrun(ReproError):
    """A pipeline stage wrote past the end of its staged buffer."""


class FaultError(ReproError):
    """Errors raised by the fault-injection subsystem (``repro.faults``)."""


class FaultConfigError(FaultError):
    """A :class:`~repro.faults.plan.FaultPlan` primitive got invalid arguments."""


class DmaFaultError(FaultError):
    """An injected DMA error persisted past the retry policy's attempt budget.

    The degradation policy (``repro.faults.policies``) retries a failed DMA
    with exponential backoff; when the injected fault outlives the budget,
    the transfer is declared permanently failed and this error propagates
    out of the simulated run.
    """


class ApplicationError(ReproError):
    """Errors raised by the benchmark applications."""


class ServeError(ReproError):
    """Errors raised by the multi-tenant serving layer (``repro.serve``)."""


class SloViolationError(ServeError):
    """A request could not (or predictably will not) meet its deadline.

    Carried on terminal responses the scheduler sheds at dispatch time
    (the deadline had already passed on the virtual clock) and on
    admission rejections whose priced backlog made the deadline
    unreachable. The message names the deadline and the evidence.
    """


class VerificationError(ReproError):
    """A simulated timeline or differential run violated a checked law."""


class ValidationFailure(ReproError):
    """An engine produced output that does not match the CPU reference."""
