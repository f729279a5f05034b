"""The FaultPlan DSL: deterministic, composable fault descriptions.

A :class:`FaultPlan` is an immutable (hashable) value describing *what goes
wrong* during one simulated run. Plans are built fluently through the
namespace accessors — each call returns a **new** plan, so partially-built
plans can be shared and reused::

    plan = (
        FaultPlan(seed=7)
        .pcie.degrade(gbps=4, at=0.001)      # link drops to 4 GB/s at t=1ms
        .dma.error(chunk=2, retries=2)       # chunk 2's DMA fails twice
        .assembly.stall(ms=0.5)              # every assembly stalls 0.5 ms
        .pinned.deny(after_bytes=32 << 20)   # pinned allocs denied past 32 MiB
    )

Because plans are frozen dataclasses they can ride inside
:class:`~repro.engines.base.EngineConfig` and participate in the engines'
memoization cache keys. Everything is deterministic: the same plan applied
to the same run produces the identical timeline, and :meth:`FaultPlan.random`
derives plans from a seed with the string-seeded ``random.Random`` scheme
the fuzz harness (:mod:`repro.verify.fuzz`) uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import FaultConfigError

#: PCIe direction names (kept local: importing :mod:`repro.hw.pcie` here
#: would create an import cycle through the package initializer).
H2D = "h2d"
D2H = "d2h"

#: stage label of the prefetch-buffer data DMA (mirror of
#: ``repro.runtime.pipeline.STAGE_TRANSFER``, local for the same reason)
STAGE_TRANSFER = "data_transfer"

GB = 1e9


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PcieDegrade:
    """From simulated time ``at``, cap the link at ``gbps`` GB/s.

    The cap applies to the bandwidth term of every transfer whose DMA
    *starts* at or after ``at`` (the rate in effect at a transfer's start
    governs the whole transfer — a deterministic simplification).
    """

    gbps: float
    at: float = 0.0

    def __post_init__(self):
        if self.gbps <= 0:
            raise FaultConfigError(f"degraded bandwidth must be positive, got {self.gbps}")
        if self.at < 0:
            raise FaultConfigError(f"degrade time must be non-negative, got {self.at}")

    @property
    def bandwidth(self) -> float:
        """The cap in bytes/second."""
        return self.gbps * GB


@dataclass(frozen=True)
class DmaError:
    """The data DMA of ``chunk`` fails ``retries`` times before succeeding.

    Each failed attempt occupies the DMA channel for the full transfer
    duration (the error is detected at completion, CRC-style), then the
    retry policy backs off exponentially. When ``retries`` exceeds the
    policy's attempt budget the transfer is declared permanently failed and
    a typed :class:`~repro.errors.DmaFaultError` propagates out of the run.
    """

    chunk: int
    retries: int = 1
    direction: str = H2D
    stage: str = STAGE_TRANSFER

    def __post_init__(self):
        if self.chunk < 0:
            raise FaultConfigError(f"chunk index must be non-negative, got {self.chunk}")
        if self.retries < 1:
            raise FaultConfigError(f"retries must be >= 1, got {self.retries}")
        if self.direction not in (H2D, D2H):
            raise FaultConfigError(f"direction must be '{H2D}' or '{D2H}'")


@dataclass(frozen=True)
class AssemblyStall:
    """The assembly thread stalls ``ms`` milliseconds on ``chunk``.

    ``chunk=None`` stalls every chunk. The stalled worker keeps its CPU
    slot (a stalled thread still occupies its hardware thread), so the
    stall lengthens the recorded assembly interval.
    """

    ms: float
    chunk: Optional[int] = None

    def __post_init__(self):
        if self.ms <= 0:
            raise FaultConfigError(f"stall must be positive, got {self.ms} ms")
        if self.chunk is not None and self.chunk < 0:
            raise FaultConfigError(f"chunk index must be non-negative, got {self.chunk}")

    @property
    def seconds(self) -> float:
        return self.ms * 1e-3


@dataclass(frozen=True)
class PinnedDeny:
    """Pinned allocations are denied once usage would exceed ``after_bytes``.

    Models the OS reclaiming page-lock budget from the process. BigKernel's
    degradation policy answers by shrinking the buffer ring toward depth 2,
    then the active-block count, and finally falling back to plain
    double-buffering.
    """

    after_bytes: int

    def __post_init__(self):
        if self.after_bytes < 0:
            raise FaultConfigError(
                f"after_bytes must be non-negative, got {self.after_bytes}"
            )


# ---------------------------------------------------------------------------
# namespace accessors (the `plan.pcie.degrade(...)` surface)
# ---------------------------------------------------------------------------

class _Namespace:
    __slots__ = ("_plan",)

    def __init__(self, plan: "FaultPlan"):
        self._plan = plan


class _PcieNamespace(_Namespace):
    def degrade(self, gbps: float, at: float = 0.0) -> "FaultPlan":
        return self._plan._with(PcieDegrade(gbps=gbps, at=at))


class _DmaNamespace(_Namespace):
    def error(
        self,
        chunk: int,
        retries: int = 1,
        direction: str = H2D,
        stage: str = STAGE_TRANSFER,
    ) -> "FaultPlan":
        return self._plan._with(
            DmaError(chunk=chunk, retries=retries, direction=direction, stage=stage)
        )


class _AssemblyNamespace(_Namespace):
    def stall(self, ms: float, chunk: Optional[int] = None) -> "FaultPlan":
        return self._plan._with(AssemblyStall(ms=ms, chunk=chunk))


class _PinnedNamespace(_Namespace):
    def deny(self, after_bytes: int) -> "FaultPlan":
        return self._plan._with(PinnedDeny(after_bytes=after_bytes))


# ---------------------------------------------------------------------------
# the plan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaultPlan:
    """An immutable bundle of fault primitives plus the seed that built it."""

    seed: int = 0
    name: str = ""
    events: tuple = ()

    def _with(self, event) -> "FaultPlan":
        return replace(self, events=self.events + (event,))

    # -- builders ---------------------------------------------------------
    @property
    def pcie(self) -> _PcieNamespace:
        return _PcieNamespace(self)

    @property
    def dma(self) -> _DmaNamespace:
        return _DmaNamespace(self)

    @property
    def assembly(self) -> _AssemblyNamespace:
        return _AssemblyNamespace(self)

    @property
    def pinned(self) -> _PinnedNamespace:
        return _PinnedNamespace(self)

    # -- queries ----------------------------------------------------------
    def active(self) -> bool:
        """True when the plan injects anything at all."""
        return bool(self.events)

    def of_type(self, kind) -> tuple:
        """Events of one primitive kind: a class, or its namespace name
        (``"pcie"``, ``"dma"``, ``"assembly"``, ``"pinned"``)."""
        if isinstance(kind, str):
            kind = {
                "pcie": PcieDegrade,
                "dma": DmaError,
                "assembly": AssemblyStall,
                "pinned": PinnedDeny,
            }[kind]
        return tuple(e for e in self.events if isinstance(e, kind))

    def pinned_deny_after(self) -> Optional[int]:
        """The tightest pinned-denial threshold, or None."""
        denies = self.of_type(PinnedDeny)
        return min(d.after_bytes for d in denies) if denies else None

    def describe(self) -> str:
        parts = []
        for e in self.events:
            if isinstance(e, PcieDegrade):
                parts.append(f"pcie.degrade(gbps={e.gbps:g}, at={e.at:g})")
            elif isinstance(e, DmaError):
                parts.append(f"dma.error(chunk={e.chunk}, retries={e.retries})")
            elif isinstance(e, AssemblyStall):
                tgt = "all" if e.chunk is None else e.chunk
                parts.append(f"assembly.stall(ms={e.ms:g}, chunk={tgt})")
            elif isinstance(e, PinnedDeny):
                parts.append(f"pinned.deny(after_bytes={e.after_bytes})")
            else:  # pragma: no cover - future primitives
                parts.append(repr(e))
        label = self.name or "plan"
        return f"{label}[{'; '.join(parts) or 'empty'}]"

    # -- seeded random plans ----------------------------------------------
    @staticmethod
    def random(
        seed: int,
        max_faults: int = 3,
        max_chunk: int = 5,
        include_pinned: bool = False,
    ) -> "FaultPlan":
        """A deterministic random plan of recoverable faults.

        Uses the string-seeded ``random.Random`` convention of
        :mod:`repro.verify.fuzz`, so a plan is reproducible from ``seed``
        alone. Generated faults are always *recoverable* (retry counts stay
        inside the policy budget); pinned pressure is opt-in because its
        degradation path can re-route the run to another engine.
        """
        rng = random.Random(f"faultplan-{seed}")
        plan = FaultPlan(seed=seed, name=f"random-{seed}")
        kinds = ["pcie", "dma", "assembly"] + (["pinned"] if include_pinned else [])
        # the injector SUMS retries of every DmaError matching a chunk, so
        # keep the per-chunk total below the fatal threshold
        from repro.faults.policies import MAX_DMA_ATTEMPTS

        retries_budget: dict = {}
        for _ in range(rng.randint(1, max(1, max_faults))):
            kind = rng.choice(kinds)
            if kind == "pcie":
                plan = plan.pcie.degrade(
                    gbps=rng.uniform(1.0, 8.0), at=rng.uniform(0.0, 2e-3)
                )
            elif kind == "dma":
                chunk = rng.randint(0, max_chunk)
                headroom = MAX_DMA_ATTEMPTS - 1 - retries_budget.get(chunk, 0)
                if headroom < 1:
                    continue
                retries = rng.randint(1, min(3, headroom))
                retries_budget[chunk] = retries_budget.get(chunk, 0) + retries
                plan = plan.dma.error(chunk=chunk, retries=retries)
            elif kind == "assembly":
                chunk = rng.choice([None, rng.randint(0, max_chunk)])
                plan = plan.assembly.stall(ms=rng.uniform(0.01, 0.5), chunk=chunk)
            else:
                plan = plan.pinned.deny(after_bytes=rng.randrange(1 << 20, 64 << 20))
        return plan
