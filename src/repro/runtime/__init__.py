"""BigKernel runtime: the paper's primary contribution.

Provides the ``streamingMalloc``/``streamingMap`` programming model
(:mod:`~repro.runtime.streaming`), online stride-pattern recognition that
compresses the address stream (:mod:`~repro.runtime.pattern`), the CPU-side
data-assembly stage with its read-locality optimization
(:mod:`~repro.runtime.assembly`), per-thread-block multi-instance buffer
sets (:mod:`~repro.runtime.buffers`), active-thread-block accounting
(:mod:`~repro.runtime.scheduler`), and the 4-stage (6 with mapped writes)
pipeline that runs it all on the simulated timeline
(:mod:`~repro.runtime.pipeline`).
"""

from repro.runtime.pattern import (
    StridePattern,
    PatternRecognizer,
    OnlineAddressTracker,
    AdaptiveAddressTracker,
    PATTERN_DESCRIPTOR_BYTES,
    ADDRESS_BYTES,
)
from repro.runtime.streaming import StreamingArray, StreamingRegistry
from repro.runtime.launcher import bigkernel_launch, KernelApplication, LaunchSpec
from repro.runtime.buffers import BlockBuffers, BufferConfig
from repro.runtime.assembly import (
    gather_values,
    gather_bytes,
    interleave_layout,
    assembly_read_order,
    estimate_assembly_hit_rate,
)
from repro.runtime.scheduler import ThreadLayout, plan_blocks
from repro.runtime.pipeline import (
    ChunkWork,
    PipelineConfig,
    PipelineResult,
    run_pipeline,
    run_pipeline_per_block,
    STAGE_ADDR_GEN,
    STAGE_ASSEMBLY,
    STAGE_TRANSFER,
    STAGE_COMPUTE,
    STAGE_WRITEBACK_XFER,
    STAGE_WRITEBACK_SCATTER,
)

__all__ = [
    "StridePattern",
    "PatternRecognizer",
    "OnlineAddressTracker",
    "AdaptiveAddressTracker",
    "PATTERN_DESCRIPTOR_BYTES",
    "ADDRESS_BYTES",
    "StreamingArray",
    "StreamingRegistry",
    "bigkernel_launch",
    "KernelApplication",
    "LaunchSpec",
    "BlockBuffers",
    "BufferConfig",
    "gather_values",
    "gather_bytes",
    "interleave_layout",
    "assembly_read_order",
    "estimate_assembly_hit_rate",
    "ThreadLayout",
    "plan_blocks",
    "ChunkWork",
    "PipelineConfig",
    "PipelineResult",
    "run_pipeline",
    "run_pipeline_per_block",
    "STAGE_ADDR_GEN",
    "STAGE_ASSEMBLY",
    "STAGE_TRANSFER",
    "STAGE_COMPUTE",
    "STAGE_WRITEBACK_XFER",
    "STAGE_WRITEBACK_SCATTER",
]
