"""Multi-tenant serving layer: admission, SLO-aware EDF scheduling with
weighted-deficit fairness, online job pricing, launch batching, cross-job
template reuse, and run-cache short-circuit (docs/serving.md)."""

from repro.serve.batcher import (
    Batch,
    QueuedRequest,
    batch_key,
    coalesce,
    unique_key,
)
from repro.serve.metrics import ServeMetrics
from repro.serve.pricing import JobPricer
from repro.serve.scheduler import (
    STATUSES,
    ServeConfig,
    ServeOutcome,
    ServeResponse,
    Server,
    StepTimer,
    bit_equal,
    judge,
    oneshot_oracle,
    serve_trace,
)
from repro.serve.workload import (
    DEFAULT_TENANTS,
    ServeRequest,
    TenantSpec,
    TraceSpec,
    engine_spec_by_name,
    generate_trace,
    scale_trace,
    with_slo,
)

__all__ = [
    "Batch",
    "QueuedRequest",
    "batch_key",
    "coalesce",
    "unique_key",
    "JobPricer",
    "ServeMetrics",
    "STATUSES",
    "ServeConfig",
    "ServeOutcome",
    "ServeResponse",
    "Server",
    "StepTimer",
    "bit_equal",
    "judge",
    "oneshot_oracle",
    "serve_trace",
    "DEFAULT_TENANTS",
    "ServeRequest",
    "TenantSpec",
    "TraceSpec",
    "engine_spec_by_name",
    "generate_trace",
    "scale_trace",
    "with_slo",
]
