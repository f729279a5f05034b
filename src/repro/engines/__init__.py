"""The five execution schemes the paper evaluates (Section VI):

1. :class:`CpuSerialEngine` — single-threaded CPU baseline (the speedup
   denominator of Fig. 4a).
2. :class:`CpuMtEngine` — multithreaded CPU baseline.
3. :class:`GpuSingleBufferEngine` — one staging buffer, transfers and
   kernels strictly serialized.
4. :class:`GpuDoubleBufferEngine` — two buffers, transfer of chunk *n+1*
   overlapped with computation of chunk *n* (the prior state of the art).
5. :class:`BigKernelEngine` — the paper's contribution, with feature flags
   matching the Section VI-B ablation (overlap only / + transfer-volume
   reduction / + memory coalescing) and a pattern-recognition switch for
   Table II.

All engines produce *functional* output through the same chunked kernel
path (validated equal across engines) and *temporal* results through the
hardware cost models on the simulated timeline. Because the functional
part is shared, :meth:`Engine._functional_output` runs a registered app's
pass once per dataset instance, whatever the chunking, and hands every
later run the same read-only output.

:data:`ENGINES` registers these, the multi-GPU engine and the UVM family
by name; an engine's :attr:`Engine.identity` is that name plus its
constructor keywords.
"""

from repro.engines.base import Engine, EngineConfig, RunResult, RunMetrics
from repro.engines.cpu_serial import CpuSerialEngine
from repro.engines.cpu_mt import CpuMtEngine
from repro.engines.gpu_single import GpuSingleBufferEngine
from repro.engines.gpu_double import GpuDoubleBufferEngine
from repro.engines.bigkernel import BigKernelEngine, BigKernelFeatures
from repro.engines.multigpu import MultiGpuBigKernelEngine, params_from_name
from repro.engines.uvm import (
    GpuUvmEngine,
    UvmLearnedEngine,
    UvmReadaheadEngine,
    UvmSpec,
)
from repro.errors import ReproError

ALL_ENGINES = (
    CpuSerialEngine,
    CpuMtEngine,
    GpuSingleBufferEngine,
    GpuDoubleBufferEngine,
    BigKernelEngine,
)

#: the unified-memory competitor family (kept out of ALL_ENGINES so the
#: paper's five-scheme matrices — calibration pins, figure harnesses —
#: stay exactly as published; the UVM comparison has its own harness in
#: ``repro.bench.uvm``)
UVM_ENGINES = (
    GpuUvmEngine,
    UvmReadaheadEngine,
    UvmLearnedEngine,
)

#: every engine class by registry name
ENGINES = {
    cls.name: cls
    for cls in ALL_ENGINES + (MultiGpuBigKernelEngine,) + UVM_ENGINES
}


def engine_by_name(name: str) -> Engine:
    """The engine ``name`` names: a registry name builds its class with
    the default keywords, and a multi-GPU instance name
    (``bigkernel_multigpu4_shared``) builds that fabric."""
    cls = ENGINES.get(name)
    if cls is not None:
        return cls()
    params = params_from_name(name)
    if params is None:
        raise ReproError(f"unknown engine {name!r}")
    return MultiGpuBigKernelEngine(**params)


__all__ = [
    "Engine",
    "EngineConfig",
    "RunResult",
    "RunMetrics",
    "CpuSerialEngine",
    "CpuMtEngine",
    "GpuSingleBufferEngine",
    "GpuDoubleBufferEngine",
    "BigKernelEngine",
    "BigKernelFeatures",
    "MultiGpuBigKernelEngine",
    "GpuUvmEngine",
    "UvmReadaheadEngine",
    "UvmLearnedEngine",
    "UvmSpec",
    "ALL_ENGINES",
    "UVM_ENGINES",
    "ENGINES",
    "engine_by_name",
]
