"""Seeded open-loop workload traces for the serving layer.

A trace is a list of :class:`ServeRequest`\\ s — (tenant, arrival time,
:class:`~repro.bench.jobs.JobSpec`) triples — drawn by a deterministic
generator: Poisson arrivals at a configured mean rate, tenants picked in
proportion to their weights, and jobs drawn from a small pool of (app,
dataset seed, engine, chunk size) combinations with a configurable
probability of *exactly* repeating an earlier job. Repeats are what make
the trace serving-shaped: a real multi-tenant service sees the same query
again and again, which is precisely what the run-cache short-circuit and
the batch coalescer exploit.

Open-loop means arrivals do not wait for completions: under overload the
queue grows and admission control — not the trace — decides what gets
dropped. The same spec + seed always produces the identical trace, so
every serving experiment is replayable; :func:`scale_trace` re-times one
trace to a different offered load without changing the job mix, which is
how the benchmark sweeps load levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.bench.jobs import DatasetSpec, EngineSpec, JobSpec
from repro.engines import engine_by_name
from repro.engines.base import EngineConfig
from repro.errors import ReproError
from repro.units import MiB


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of the service: fair-share weight plus an optional SLO."""

    name: str
    weight: float = 1.0
    #: latency SLO in milliseconds: every request of this tenant carries the
    #: deadline ``arrival + slo_ms/1000`` on the serving clock. ``None``
    #: means best-effort (no deadline; never shed, never priced-rejected).
    slo_ms: Optional[float] = None

    def __post_init__(self):
        if not self.name:
            raise ReproError("tenant needs a name")
        if self.weight <= 0:
            raise ReproError(f"tenant {self.name!r} needs a positive weight")
        if self.slo_ms is not None and self.slo_ms <= 0:
            raise ReproError(f"tenant {self.name!r} needs a positive slo_ms")

    @property
    def slo_seconds(self) -> float:
        """The SLO as seconds on the serving clock (``inf`` = best-effort)."""
        return math.inf if self.slo_ms is None else self.slo_ms / 1000.0


#: the stock three-tenant mix used by the CLI and the benchmarks
DEFAULT_TENANTS = (
    TenantSpec("alpha", 1.0),
    TenantSpec("beta", 2.0),
    TenantSpec("gamma", 4.0),
)


def with_slo(tenants: tuple, slo_ms: Optional[float]) -> tuple:
    """The same tenant mix with every tenant's SLO set to ``slo_ms``."""
    return tuple(replace(t, slo_ms=slo_ms) for t in tenants)


@dataclass
class ServeRequest:
    """One admitted-or-rejected unit of work: a job on behalf of a tenant."""

    req_id: int
    tenant: str
    #: seconds since trace start (open-loop: fixed by the generator)
    arrival: float
    job: JobSpec


@dataclass(frozen=True)
class TraceSpec:
    """Everything the trace generator draws from (all seeded)."""

    seed: int = 7
    #: seconds of arrivals to generate
    duration: float = 5.0
    #: mean arrival rate (requests/second, Poisson)
    rate: float = 20.0
    tenants: tuple = DEFAULT_TENANTS
    #: registry apps the job pool draws from
    apps: tuple = ("wordcount", "dna")
    #: engine names the job pool draws from. The default mix pairs the
    #: paper engine with the unified-memory competitor, so the serving path
    #: exercises both BigKernel's schedule memos and UVM's plan and
    #: timeline memos
    engines: tuple = ("bigkernel", "gpu_uvm")
    #: mapped bytes per generated dataset
    data_bytes: int = 1 * MiB
    #: distinct dataset seeds per app (pool size drives cache locality)
    n_dataset_seeds: int = 2
    #: chunk payload choices (KiB) the job pool draws from
    chunk_kib_choices: tuple = (512, 1024)
    #: probability a request exactly repeats an earlier job (cache food)
    repeat_p: float = 0.5

    def __post_init__(self):
        if self.duration <= 0 or self.rate <= 0:
            raise ReproError("trace needs positive duration and rate")
        if not self.tenants or not self.apps or not self.engines:
            raise ReproError("trace needs at least one tenant, app and engine")
        if not 0.0 <= self.repeat_p < 1.0:
            raise ReproError("repeat_p must be in [0, 1)")
        if self.n_dataset_seeds < 1 or not self.chunk_kib_choices:
            raise ReproError("trace needs a non-empty job pool")


def engine_spec_by_name(name: str) -> EngineSpec:
    """Picklable spec of the engine :func:`engine_by_name` resolves."""
    return engine_by_name(name).identity


def generate_trace(
    spec: TraceSpec, config: Optional[EngineConfig] = None
) -> list[ServeRequest]:
    """Draw the full request trace for ``spec`` (deterministic in seed)."""
    from repro.apps.base import APP_REGISTRY
    from repro.apps.datagen import DATAGEN_VERSION

    for app in spec.apps:
        if app not in APP_REGISTRY:
            raise ReproError(f"unknown app {app!r} for the serve trace")
    engine_specs = [engine_spec_by_name(name) for name in spec.engines]
    base = config or EngineConfig(functional=True)

    rng = np.random.default_rng(spec.seed)
    weights = np.array([t.weight for t in spec.tenants], dtype=float)
    weights /= weights.sum()
    names = [t.name for t in spec.tenants]

    requests: list[ServeRequest] = []
    history: list[JobSpec] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / spec.rate))
        if t > spec.duration:
            break
        tenant = names[int(rng.choice(len(names), p=weights))]
        if history and float(rng.random()) < spec.repeat_p:
            job = history[int(rng.integers(len(history)))]
        else:
            job = JobSpec(
                dataset=DatasetSpec(
                    app=str(rng.choice(spec.apps)),
                    seed=int(rng.integers(spec.n_dataset_seeds)),
                    n_bytes=spec.data_bytes,
                    version=DATAGEN_VERSION,
                ),
                engine=engine_specs[int(rng.integers(len(engine_specs)))],
                config=base.with_(
                    chunk_bytes=int(rng.choice(spec.chunk_kib_choices)) * 1024
                ),
            )
        history.append(job)
        requests.append(
            ServeRequest(req_id=len(requests), tenant=tenant, arrival=t, job=job)
        )
    return requests


def scale_trace(requests: list[ServeRequest], factor: float) -> list[ServeRequest]:
    """Re-time a trace by ``factor`` (>1 = slower arrivals, <1 = faster).

    The job sequence, tenants and request ids are untouched — only the
    offered load changes, which is what lets the benchmark compare load
    levels on the *same* work.
    """
    if factor <= 0:
        raise ReproError("scale factor must be positive")
    return [replace(r, arrival=r.arrival * factor) for r in requests]
