"""GPU device model: occupancy, kernel-stage timing, compute resource.

Timing follows a roofline-style model: a kernel stage over one chunk takes
``max(arithmetic time, memory time)`` where the memory time is inflated by
the coalescing efficiency of its access pattern. For the Big Data-style
kernels the paper targets, the memory term dominates (the paper observes low
GPU core utilization), which is what makes the re-layout optimization
matter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import HardwareError
from repro.hw.elementwise import every, maximum, minimum
from repro.hw.spec import GpuSpec
from repro.sim.core import Environment
from repro.sim.resources import Resource


@dataclass(frozen=True)
class KernelCost:
    """Counted work of one kernel stage execution over one chunk.

    The counts may be per-point arrays when a sweep grid is priced.
    """

    #: arithmetic operations retired
    n_ops: float
    #: useful bytes read+written against global memory
    global_bytes: float
    #: coalescing efficiency in [elem/txn, 1]; actual DRAM traffic is
    #: ``global_bytes / efficiency``
    efficiency: float = 1.0
    #: additional fixed overhead (barriers, flag polling), seconds
    fixed_overhead: float = 0.0

    def __post_init__(self):
        if not every((self.efficiency > 0) & (self.efficiency <= 1.0)):
            raise HardwareError(f"efficiency must be in (0, 1], got {self.efficiency}")
        ok = (self.n_ops >= 0) & (self.global_bytes >= 0) & (self.fixed_overhead >= 0)
        if not every(ok):
            raise HardwareError("kernel cost components must be non-negative")


@dataclass(frozen=True)
class BlockResources:
    """Per-thread-block resource requirements (the paper's ``Rtb``)."""

    threads: int
    shared_mem_bytes: int = 0
    registers_per_thread: int = 32


class GpuDevice:
    """A simulated GPU: spec + timing + an optional timeline resource.

    ``compute`` has capacity 2 so that one address-generation stage and one
    computation stage (different warps of the same resident blocks) can be
    on the device simultaneously, as BigKernel requires; their slowdown from
    sharing the memory system is already folded into the stage costs.
    """

    def __init__(self, spec: GpuSpec, env: Environment | None = None):
        self.spec = spec
        self.env = env
        self.compute = Resource(env, capacity=2, name="gpu") if env else None

    # -- occupancy ---------------------------------------------------------
    def max_active_blocks(self, req: BlockResources) -> int:
        """Hardware bound on simultaneously resident thread blocks.

        ``min`` over the three per-SM resource constraints (threads, shared
        memory, registers) times the SM count — the runtime part of the
        paper's hybrid compile-time/run-time active-block formula.
        ``req.threads`` may be an array of per-point block sizes.
        """
        limit = self.spec.max_threads_per_block
        if not every((req.threads >= 1) & (req.threads <= limit)):
            raise HardwareError(
                f"block thread count {req.threads} outside (0, "
                f"{self.spec.max_threads_per_block}]"
            )
        by_threads = self.spec.max_threads_per_sm // req.threads
        by_smem = (
            self.spec.shared_mem_per_sm // req.shared_mem_bytes
            if req.shared_mem_bytes
            else by_threads
        )
        regs = req.registers_per_thread * req.threads
        by_regs = by_threads
        if req.registers_per_thread:
            by_regs = self.spec.registers_per_sm // regs
        per_sm = minimum(minimum(by_threads, by_smem), by_regs)
        return maximum(0, per_sm) * self.spec.num_sms

    def active_blocks(self, req: BlockResources, num_set_blocks: int) -> int:
        """Paper Section IV-D: ``min(numSetBlocks, Rgpu / Rtb)``."""
        hw = self.max_active_blocks(req)
        if not every(hw > 0):
            raise HardwareError(
                f"a block needing {req} exceeds per-SM resources of {self.spec.name}"
            )
        return minimum(num_set_blocks, hw)

    # -- latency hiding ------------------------------------------------------
    def bandwidth_scale(self, total_threads: int) -> float:
        """Fraction of streaming bandwidth reachable with this many threads.

        GPUs need enough in-flight warps to cover DRAM latency; with too few
        resident threads the achieved bandwidth degrades roughly linearly.
        Saturation is modelled at 4 warps per SM scheduler slot (~1024
        threads/SM on the modelled part is full; 1/4 of that saturates
        streaming loads).
        """
        saturating = self.spec.num_sms * (self.spec.max_threads_per_sm // 4)
        if not every(total_threads > 0):
            raise HardwareError("total_threads must be positive")
        return minimum(1.0, total_threads / saturating)

    # -- timing ---------------------------------------------------------------
    def stage_time(self, cost: KernelCost, total_threads: int | None = None) -> float:
        """Duration of one kernel stage over one chunk (seconds).

        Additive roofline: the Big Data-style kernels modelled here are
        branchy and divergent, which defeats the latency hiding that would
        let arithmetic and memory time fully overlap — so the stage pays
        for both components rather than only the larger one.
        """
        scale = 1.0 if total_threads is None else self.bandwidth_scale(total_threads)
        compute_t = cost.n_ops / self.spec.peak_ops
        traffic = cost.global_bytes / cost.efficiency
        mem_t = traffic / (self.spec.effective_mem_bandwidth * scale)
        return compute_t + mem_t + cost.fixed_overhead

    def launch_overhead(self, n_launches: int = 1) -> float:
        """Fixed driver/runtime cost of ``n_launches`` kernel launches."""
        if n_launches < 0:
            raise HardwareError("n_launches must be non-negative")
        return n_launches * self.spec.kernel_launch_overhead

    def flag_wait_overhead(self, n_waits: int) -> float:
        """Cost of busy-waiting on memory flags ``n_waits`` times.

        Each wait costs at least one global-memory round trip (Section IV-C:
        a single thread polls; the rest barrier).
        """
        return n_waits * self.spec.global_latency
