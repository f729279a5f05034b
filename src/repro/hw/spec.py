"""Hardware specification dataclasses and the paper's testbed presets.

Numbers come from Section V of the paper where given (GTX 680, 2 GB GPU
memory, PCIe Gen3 x16, 3.8 GHz quad-core Xeon E5 with 8 hardware threads and
16 GB quad-channel DDR3-1800) and from vendor datasheets for the quantities
the paper does not restate (GTX 680 memory bandwidth 192 GB/s, 8 SMX units).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.hw.elementwise import every, where
from repro.units import GB, GiB, MiB, KiB, US, MS


@dataclass(frozen=True)
class GpuSpec:
    """Static description of a GPU device."""

    name: str
    num_sms: int
    cores_per_sm: int
    clock_hz: float
    warp_size: int
    global_mem_bytes: int
    #: peak global-memory bandwidth (bytes/s)
    mem_bandwidth: float
    #: fraction of peak DRAM bandwidth a fully-coalesced streaming kernel
    #: actually sustains
    mem_efficiency: float
    #: size of one memory transaction segment (bytes)
    transaction_bytes: int
    shared_mem_per_sm: int
    registers_per_sm: int
    max_threads_per_sm: int
    max_threads_per_block: int
    #: fixed cost of one kernel launch (seconds)
    kernel_launch_overhead: float
    #: simple-precision operations retired per core per cycle
    ops_per_core_per_cycle: float
    #: latency of a GPU-side global memory round trip (seconds); used for
    #: flag busy-wait costing
    global_latency: float

    @property
    def total_cores(self) -> int:
        return self.num_sms * self.cores_per_sm

    @property
    def peak_ops(self) -> float:
        """Peak arithmetic throughput, ops/second."""
        return self.total_cores * self.clock_hz * self.ops_per_core_per_cycle

    @property
    def effective_mem_bandwidth(self) -> float:
        """Sustained bandwidth for fully-coalesced streaming access."""
        return self.mem_bandwidth * self.mem_efficiency


@dataclass(frozen=True)
class CpuSpec:
    """Static description of the host CPU and its memory system."""

    name: str
    cores: int
    threads: int
    clock_hz: float
    #: sustained socket memory bandwidth for streaming access (bytes/s)
    mem_bandwidth: float
    #: what a single thread can stream by itself (bytes/s)
    per_thread_bandwidth: float
    #: combined L2/L3 capacity (bytes)
    cache_bytes: int
    cache_line: int
    #: average DRAM access latency for a cache miss (seconds)
    miss_latency: float
    #: arithmetic ops per core per cycle (superscalar + SIMD factored in)
    ops_per_core_per_cycle: float
    #: host memory size (bytes)
    dram_bytes: int
    #: parallel efficiency of the multithreaded baselines (sync overhead,
    #: shared-cache contention); applied to core scaling
    mt_efficiency: float

    @property
    def peak_ops_per_thread(self) -> float:
        return self.clock_hz * self.ops_per_core_per_cycle


@dataclass(frozen=True)
class PcieSpec:
    """Static description of the CPU-GPU interconnect."""

    name: str
    #: theoretical link throughput per direction (bytes/s)
    raw_bandwidth: float
    #: achievable fraction for large pinned-buffer DMA
    pinned_efficiency: float
    #: achievable fraction for pageable (staged) transfers
    pageable_efficiency: float
    #: per-transfer setup latency (driver + DMA descriptor, seconds)
    latency: float
    #: number of independent DMA engines (GTX 680 has one copy engine)
    dma_engines: int

    @property
    def pinned_bandwidth(self) -> float:
        return self.raw_bandwidth * self.pinned_efficiency

    @property
    def pageable_bandwidth(self) -> float:
        return self.raw_bandwidth * self.pageable_efficiency

    def transfer_time(
        self, nbytes: float, pinned: bool = True, segments: int = 1
    ) -> float:
        """Duration of one logical transfer of ``nbytes`` (seconds).

        ``segments`` charges the per-DMA setup latency multiple times — a
        BigKernel chunk is physically one DMA per thread-block buffer set,
        not one large copy.
        """
        if segments < 1:
            raise ValueError(f"segments must be >= 1, got {segments}")
        if nbytes <= 0:
            return self.latency * segments
        bw = self.pinned_bandwidth if pinned else self.pageable_bandwidth
        return self.latency * segments + nbytes / bw

    def pinned_transfer_time(self, nbytes, segments=1):
        """:meth:`transfer_time` of a pinned transfer, for numbers or arrays.

        The analytic predictor prices chunk stages through this form, so
        one formula serves a single configuration and a whole sweep grid.
        :meth:`transfer_time` keeps its scalar body because the simulator
        calls it once per DMA; a test holds the two equal.
        """
        if not every(segments >= 1):
            raise ValueError(f"segments must be >= 1, got {segments}")
        payload = where(nbytes > 0, nbytes, 0)
        return self.latency * segments + payload / self.pinned_bandwidth


@dataclass(frozen=True)
class HardwareSpec:
    """A complete machine: GPU + CPU + interconnect."""

    gpu: GpuSpec
    cpu: CpuSpec
    pcie: PcieSpec

    def scaled(self, **gpu_overrides) -> "HardwareSpec":
        """Return a copy with GPU fields overridden (for sweeps)."""
        return replace(self, gpu=replace(self.gpu, **gpu_overrides))


# ---------------------------------------------------------------------------
# Presets: the paper's testbed
# ---------------------------------------------------------------------------

GTX680 = GpuSpec(
    name="NVIDIA GeForce GTX 680",
    num_sms=8,
    cores_per_sm=192,
    clock_hz=1020e6,
    warp_size=32,
    global_mem_bytes=2 * GiB,
    mem_bandwidth=192 * GB,
    mem_efficiency=0.75,
    transaction_bytes=32,
    shared_mem_per_sm=48 * KiB,
    registers_per_sm=65536,
    max_threads_per_sm=2048,
    max_threads_per_block=1024,
    kernel_launch_overhead=10 * US,
    ops_per_core_per_cycle=1.0,
    global_latency=0.4 * US,
)

XEON_E5 = CpuSpec(
    name="Intel Xeon E5 3.8GHz quad-core",
    cores=4,
    threads=8,
    clock_hz=3.8e9,
    mem_bandwidth=52 * GB,
    per_thread_bandwidth=12 * GB,
    cache_bytes=10 * MiB,
    cache_line=64,
    miss_latency=80e-9,
    # irregular scalar kernels (parsing, hashing, branchy loops) retire well
    # below the machine's peak superscalar width
    ops_per_core_per_cycle=1.5,
    dram_bytes=16 * GiB,
    mt_efficiency=0.85,
)

PCIE_GEN3_X16 = PcieSpec(
    name="PCIe Gen3 x16",
    raw_bandwidth=15.75 * GB,
    pinned_efficiency=0.72,  # ~11.3 GB/s, typical measured H2D pinned
    pageable_efficiency=0.38,  # ~6 GB/s, staged through driver bounce buffers
    latency=8 * US,  # cudaMemcpyAsync submit + DMA descriptor setup
    dma_engines=1,
)

#: The paper's evaluation machine.
DEFAULT_HARDWARE = HardwareSpec(gpu=GTX680, cpu=XEON_E5, pcie=PCIE_GEN3_X16)

# ---------------------------------------------------------------------------
# What-if presets for the analytic predictor (``repro report --hw ...``)
# ---------------------------------------------------------------------------

#: Named machine variants for instant what-if reports. ``paper`` is the
#: evaluation testbed above; the others perturb one axis at a time so the
#: predicted bottleneck shift is attributable.
HW_PRESETS: dict[str, HardwareSpec] = {
    "paper": DEFAULT_HARDWARE,
    # half / double the interconnect (PCIe Gen2 x16 ≈ 8 GB/s raw,
    # Gen4 x16 ≈ 31.5 GB/s raw)
    "pcie-gen2": replace(
        DEFAULT_HARDWARE,
        pcie=replace(PCIE_GEN3_X16, name="PCIe Gen2 x16", raw_bandwidth=8 * GB),
    ),
    "pcie-gen4": replace(
        DEFAULT_HARDWARE,
        pcie=replace(PCIE_GEN3_X16, name="PCIe Gen4 x16", raw_bandwidth=31.5 * GB),
    ),
    # twice the SMs and DRAM bandwidth: does the pipeline stay
    # transfer-bound or flip to assembly-bound?
    "big-gpu": DEFAULT_HARDWARE.scaled(
        name="2x GTX 680 class", num_sms=16, mem_bandwidth=384 * GB
    ),
    # half the per-thread host bandwidth: stresses the assembly stage
    "slow-cpu": replace(
        DEFAULT_HARDWARE,
        cpu=replace(
            XEON_E5, name="half-bandwidth host", per_thread_bandwidth=6 * GB
        ),
    ),
}


def get_hardware(name: str) -> HardwareSpec:
    """Look up a what-if preset by name (see :data:`HW_PRESETS`)."""
    try:
        return HW_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown hardware preset {name!r}; available: "
            + ", ".join(sorted(HW_PRESETS))
        ) from None
