"""Shared cost derivations for the GPU-based engines."""

from __future__ import annotations

from repro.apps.base import AccessProfile
from repro.hw.coalescing import AccessPattern
from repro.hw.elementwise import maximum, trunc
from repro.hw.gpu import KernelCost

#: lane distance used for byte-walk kernels (each thread owns a contiguous
#: slab, so simultaneous lane accesses are slab-lengths apart — effectively
#: uncoalesced)
SLAB_STRIDE = 1 << 16


def original_access_pattern(profile: AccessProfile) -> AccessPattern:
    """Coalescing geometry of the kernel on the *original* data layout.

    Fixed-record apps: consecutive threads process consecutive records, so
    lanes sit one record apart. Byte-walk apps (variable-length): threads
    own contiguous slabs, so lanes are far apart — the paper's observation
    that such apps cannot coalesce in their original form.
    """
    mapped_traffic = profile.read_bytes_per_record + profile.write_bytes_per_record
    total_traffic = mapped_traffic + profile.resident_bytes_per_record
    frac = mapped_traffic / total_traffic if total_traffic > 0 else 1.0
    if profile.record_bytes <= profile.elem_bytes:
        stride = SLAB_STRIDE  # byte-walk slabs
    else:
        stride = int(profile.record_bytes)
    return AccessPattern(
        elem_bytes=profile.elem_bytes,
        record_bytes=max(stride, profile.elem_bytes),
        mapped_fraction=frac,
    )


def kernel_chunk_cost(
    profile: AccessProfile,
    units: float,
    coalesced: bool,
    sync_overhead: float = 0.0,
) -> KernelCost:
    """GPU computation-stage cost over ``units`` records/bytes."""
    pattern = original_access_pattern(profile)
    eff = pattern.kernel_efficiency(coalesced_layout=coalesced)
    mapped = units * (
        profile.read_bytes_per_record + profile.write_bytes_per_record
    )
    resident = units * profile.resident_bytes_per_record
    return KernelCost(
        n_ops=units * profile.gpu_ops_per_record * profile.gpu_divergence,
        global_bytes=mapped + resident,
        efficiency=eff,
        fixed_overhead=sync_overhead,
    )


def addr_gen_chunk_cost(profile: AccessProfile, units: float) -> KernelCost:
    """Address-generation-stage cost: only control flow + address arithmetic
    survive the slice, so the op count is a couple of ops per emitted
    address (paper: this stage "requires only a small fraction of the total
    execution time")."""
    return KernelCost(
        n_ops=units * (2.0 + 3.0 * profile.emitted_addresses_per_record),
        global_bytes=0.0,
        efficiency=1.0,
    )


def chunk_plan(total_units: int, chunk_bytes: int, bytes_per_unit: float) -> tuple[int, int]:
    """(units per chunk, number of chunks per pass); ``chunk_bytes`` may
    be an array of per-point chunk sizes."""
    upc = maximum(1, trunc(chunk_bytes / max(bytes_per_unit, 1e-12)))
    return upc, -(-total_units // upc)
