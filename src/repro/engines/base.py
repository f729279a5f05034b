"""Engine base class, configuration, and run metrics."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Any, Callable, Optional

import numpy as np

from repro.apps.base import AccessProfile, AppData, Application, is_registered
from repro.errors import RuntimeConfigError
from repro.faults.plan import FaultPlan
from repro.hw.spec import DEFAULT_HARDWARE, HardwareSpec, dict_init, hash_once
from repro.sim.trace import Interval, ReadOnlyMeta, TraceRecorder
from repro.units import MiB


@hash_once
@dict_init
@dataclass(frozen=True)
class EngineConfig:
    """Knobs shared by every execution scheme.

    The paper configures each implementation with the thread count and
    buffer sizes that empirically perform best; these defaults are the
    best-of-sweep values for the default workloads (see
    ``benchmarks/test_ablation_buffers.py`` for the sweep itself).
    """

    hardware: HardwareSpec = DEFAULT_HARDWARE
    #: payload capacity of one GPU-side buffer instance
    chunk_bytes: int = 8 * MiB
    #: thread blocks launched (BigKernel may activate fewer, Section IV-D)
    num_blocks: int = 16
    #: computation threads per block (BigKernel adds as many addr-gen ones)
    compute_threads: int = 256
    #: buffer instances per set (ring depth)
    ring_depth: int = 3
    #: enable online pattern recognition (Table II's switch)
    pattern_recognition: bool = True
    #: allow the analytic steady-state pipeline (repro.runtime.fastpath)
    #: when the run qualifies, and a fault-free run's replay of the
    #: timeline its memoized plan keeps (``Engine._timed``); False runs
    #: the discrete-event simulator (and so records a full trace) on
    #: every call
    fastpath: bool = True
    #: compute the app's functional output (the semantics cross-check);
    #: False skips it — timing-only runs for sweeps and perf benchmarks,
    #: where ``RunResult.output`` is None
    functional: bool = True
    #: deterministic fault plan (``repro.faults``); None = clean run. An
    #: active plan forces the DES and engages the degradation policies
    faults: Optional[FaultPlan] = None

    def __post_init__(self):
        if self.chunk_bytes < 1024:
            raise RuntimeConfigError("chunk_bytes must be at least 1 KiB")
        if self.num_blocks < 1:
            raise RuntimeConfigError("num_blocks must be >= 1")
        if self.compute_threads < 32 or self.compute_threads % 32:
            raise RuntimeConfigError(
                "compute_threads must be a positive multiple of the warp size"
            )
        if self.ring_depth < 2:
            raise RuntimeConfigError("ring_depth must be >= 2")

    @property
    def total_compute_threads(self) -> int:
        return self.num_blocks * self.compute_threads

    def with_(self, **overrides) -> "EngineConfig":
        """This config with ``overrides`` applied and validated, as
        ``dataclasses.replace`` makes it, without a keyword round trip
        through ``__init__``: a sweep derives one config per point."""
        state = {**self.__dict__, **overrides}
        state.pop("_hash", None)  # the kept hash is this config's
        if len(state) != _N_FIELDS or "_hash" in overrides:
            return replace(self, **overrides)  # an unknown keyword: its TypeError
        config = object.__new__(type(self))
        object.__setattr__(config, "__dict__", state)
        config.__post_init__()
        return config


_N_FIELDS = len(fields(EngineConfig))


@dataclass
class RunMetrics:
    """Counted work and timeline breakdown of one engine run."""

    n_chunks: int = 0
    bytes_h2d: int = 0
    bytes_d2h: int = 0
    #: time spent computing (GPU kernel or CPU loop)
    comp_time: float = 0.0
    #: time spent moving data (staging + DMA), for Fig. 4(b)
    comm_time: float = 0.0
    #: per-stage busy totals (BigKernel; Fig. 6)
    stage_totals: dict = field(default_factory=dict)
    #: fraction of sampled addr-gen threads whose stream compressed to a
    #: pattern descriptor
    pattern_fraction: float = 0.0
    kernel_launches: int = 0
    notes: dict = field(default_factory=dict)

    @property
    def comp_comm_ratio(self) -> float:
        """Computation share of comp+comm (Fig. 4(b)'s y-axis)."""
        total = self.comp_time + self.comm_time
        return self.comp_time / total if total > 0 else 0.0


@dataclass
class RunResult:
    """Outcome of one engine run: output + simulated time + metrics."""

    engine: str
    app: str
    output: Any
    sim_time: float
    metrics: RunMetrics
    trace: Optional[TraceRecorder] = None

    def speedup_over(self, other: "RunResult") -> float:
        """``other.sim_time / self.sim_time`` (how much faster *self* is)."""
        if self.sim_time <= 0:
            raise RuntimeConfigError("cannot compute speedup of a zero-time run")
        return other.sim_time / self.sim_time


@dataclass(frozen=True)
class Timeline:
    """What one simulation of a plan leaves: every number a result holds
    except the functional output. A memoized plan keeps the first
    fault-free one (see :meth:`Engine._timed`), so ``metrics`` is never
    handed out; :meth:`result` builds each run's containers afresh."""

    sim_time: float
    metrics: RunMetrics
    #: the trace's intervals; None when nothing was recorded (closed form)
    intervals: Optional[tuple] = None

    def kept(self) -> "Timeline":
        """This timeline as a plan keeps it: every replay shares its
        intervals, so they are rebuilt with read-only meta (the records
        themselves are frozen)."""
        if self.intervals is None:
            return self
        intervals = tuple(
            Interval(iv.track, iv.label, iv.start, iv.end, ReadOnlyMeta(iv.meta))
            for iv in self.intervals
        )
        return Timeline(self.sim_time, self.metrics, intervals)

    def result(self, engine: str, app: str, output: Any) -> RunResult:
        """A :class:`RunResult` of this timeline in fresh containers (stage
        totals, notes, trace recorder) over its intervals, which a kept
        timeline shares read-only: a caller that edits what it got cannot
        change a later replay."""
        m = self.metrics
        notes = {
            k: type(v)(v) if isinstance(v, (dict, list)) else v
            for k, v in m.notes.items()
        }
        metrics = RunMetrics(
            m.n_chunks, m.bytes_h2d, m.bytes_d2h, m.comp_time, m.comm_time,
            dict(m.stage_totals), m.pattern_fraction, m.kernel_launches, notes,
        )
        trace = None if self.intervals is None else TraceRecorder(self.intervals)
        return RunResult(engine, app, output, self.sim_time, metrics, trace)


@dataclass(frozen=True)
class EngineSpec:
    """An engine's identity: its registry name plus every constructor
    keyword, defaults included, as name-sorted ``(keyword, value)`` pairs.
    It keys caches and crosses process boundaries."""

    name: str
    params: tuple = ()

    def __hash__(self) -> int:
        # equal specs share a name, whose hash Python caches: served
        # requests hash their spec several times each
        return hash(self.name)


class Engine(abc.ABC):
    """One execution scheme."""

    name: str = ""
    display_name: str = ""

    def _params(self) -> dict:
        """This instance's constructor keywords, defaults included."""
        return {}

    @cached_property
    def identity(self) -> EngineSpec:
        """The :class:`EngineSpec` this engine is keyed and rebuilt by."""
        return EngineSpec(type(self).name, tuple(sorted(self._params().items())))

    @abc.abstractmethod
    def run(
        self,
        app: Application,
        data: AppData,
        config: Optional[EngineConfig] = None,
    ) -> RunResult:
        """Execute ``app`` over ``data``; returns output + simulated time."""

    # ------------------------------------------------------------- shared
    @staticmethod
    def _timed(
        plan: Any, config: EngineConfig, simulate: Callable[[], Timeline]
    ) -> Timeline:
        """The run's timeline, by the one replay rule of every simulating
        engine: a run with the fast path allowed and no fault plan replays
        the :class:`Timeline` its memoized ``plan`` keeps, which the first
        such run simulated (closed form, DES fallback or paging DES) and
        stored as :meth:`Timeline.kept`.
        ``fastpath=False`` and any fault plan, even an empty one, simulate
        on every call and keep nothing. Threads that miss together may both
        simulate; the later store wins, and the values are equal."""
        if not config.fastpath or config.faults is not None:
            return simulate()
        timeline = plan.timeline
        if timeline is None:
            timeline = plan.timeline = simulate().kept()
        return timeline

    @staticmethod
    def _functional_output(
        app: Application, data: AppData, units_per_chunk: int
    ) -> Any:
        """Run the app's kernel over all passes in ``units_per_chunk``-unit
        chunks (the semantics every scheme shares; schemes differ only in
        data movement).

        A registered app's pass is pure and chunk-invariant (the
        :class:`~repro.apps.base.Application` contract): its output
        depends only on the app and the dataset, and running it again
        leaves the dataset as it was (K-means rewrites the same ``cid``
        values). So its output is memoized on the dataset instance itself,
        in ``data.meta["_functional"]`` keyed on the app instance alone,
        and dies with the dataset: one pass per dataset whatever the
        chunking, and ``app.chunk_bounds`` runs only when a pass does.
        Every run gets the same read-only arrays inside fresh containers,
        so a caller that edits what it got cannot poison a later run. Like
        the ``_separators`` index, the memo does not see an in-place edit
        of the dataset after the first run, and a hit writes nothing: a
        dropped K-means dataset whose arrays are read back holds ``cid`` as
        generated, not as the memoized pass left it. Other apps run the
        pass every time: :class:`~repro.runtime.launcher.KernelApplication`
        accumulates into the caller's ``data.resident``.
        """
        if not is_registered(app):
            return _run_passes(app, data, units_per_chunk)
        memo = data.meta.setdefault("_functional", {})
        if app not in memo:
            memo[app] = _run_passes(app, data, units_per_chunk)
        return _read_only(memo[app])

    @staticmethod
    def totals(app: Application, data: AppData, profile: AccessProfile) -> dict:
        """Aggregate work quantities every cost model starts from."""
        units = app.n_units(data)
        return {
            "units": units,
            "data_bytes": units * profile.record_bytes,
            "read_bytes": units * profile.read_bytes_per_record,
            "write_bytes": units * profile.write_bytes_per_record,
            "reads": units * profile.reads_per_record,
            "writes": units * profile.writes_per_record,
            "gpu_ops": units * profile.gpu_ops_per_record,
            "cpu_ops": units * profile.cpu_ops_per_record,
            "resident_bytes": units * profile.resident_bytes_per_record,
        }


def _run_passes(app: Application, data: AppData, units_per_chunk: int) -> Any:
    bounds = app.chunk_bounds(data, units_per_chunk)
    state = app.make_state(data)
    for p in range(app.n_passes):
        app.start_pass(data, state, p)
        for lo, hi in bounds:
            app.process_chunk(data, state, lo, hi)
    return app.finalize(data, state)


def _read_only(value: Any) -> Any:
    """``value`` in fresh dicts, lists and tuples around its arrays, each
    marked read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
        return value
    if isinstance(value, dict):
        return {k: _read_only(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_read_only(v) for v in value)
    return value
