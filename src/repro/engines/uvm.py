"""Unified-virtual-memory competitor engines (fault-driven demand paging).

BigKernel (2014) predates usable on-demand page migration; CUDA Unified
Memory later delivered the same *programmability* (no chunking, no
staging buffers, one launch over arbitrarily large data) directly in the
driver. These engines model that executor as a page-fault-driven
simulation under the DES so it can stand next to the pipelined schemes
in the comparison figures:

* ``gpu_uvm`` — demand paging with the driver's partial sequential
  readahead. Execution walks the mapped range in batches of pages; a
  batch with non-resident pages raises one *grouped* page fault (the
  faulting warps stall for a single driver round trip, amortized across
  the batch), the missing pages migrate over PCIe at pinned-DMA speed,
  and an LRU policy evicts under the modeled device-memory capacity,
  writing dirty pages back.
* ``uvm_readahead`` — a sequential readahead prefetcher with an adaptive
  window (grows on hit, halves on miss) issuing ahead-of-fault
  full-batch migrations, after "A readahead prefetcher for GPU file
  system layer" (PAPERS.md).
* ``uvm_learned`` — a pattern prefetcher that consumes the repo's
  ``AffineStream``/``StridePattern`` descriptors to justify a deep fixed
  window that survives pass boundaries, after "Deep Learning based Data
  Prefetching in CPU-GPU Unified Virtual Memory" (PAPERS.md).

All three run under the DES and emit standard trace intervals
(``data_transfer`` / ``compute`` / ``write_transfer``), so the invariant
checkers and the differential oracle apply unchanged, and PCIe fault
plans (``pcie.degrade``, ``dma.error``) act on the migration DMAs
exactly as they do on the pipelined engines.

A run's plan (page geometry, fault batches, per-batch compute times) is
memoized on the engine. Like every simulating engine's plan it keeps its
fault-free timeline, so a repeated run with the fast path allowed
replays it, bit for bit, without a DES (:meth:`Engine._timed`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.base import AppData, Application, data_fingerprint
from repro.engines.base import Engine, EngineConfig, RunMetrics, RunResult, Timeline
from repro.engines.gpu_common import chunk_plan, kernel_chunk_cost
from repro.errors import RuntimeConfigError, SlicingError
from repro.faults.inject import as_injector
from repro.hw.gpu import GpuDevice
from repro.hw.paging import PageTable
from repro.hw.pcie import D2H, H2D, DmaEngine, PcieLink
from repro.hw.spec import HardwareSpec
from repro.memo import Memo
from repro.runtime.pipeline import (
    STAGE_COMPUTE,
    STAGE_TRANSFER,
    STAGE_WRITEBACK_XFER,
)
from repro.sim.core import PENDING, Environment, Event
from repro.sim.trace import TraceRecorder
from repro.units import KiB, US

#: trace label of the un-hidable fault-service stall (cpu track)
FAULT_SERVICE = "fault_service"


@dataclass(frozen=True)
class UvmSpec:
    """Driver parameters of the modelled unified-memory implementation."""

    #: migration granularity (basic UVM page)
    page_bytes: int = 64 * KiB
    #: CPU-side service cost of one grouped fault (handler + mapping
    #: update + PCIe round trip); batching faults amortizes this over the
    #: whole batch rather than paying it per page
    fault_latency: float = 25 * US
    #: fraction of a faulting batch's *successor* the driver's partial
    #: sequential readahead queues ahead of the faulting thread (plain
    #: ``gpu_uvm``, with no prefetcher, still has this, like real UVM)
    prefetch_hit: float = 0.65
    #: fraction of the fault-service stall that computation on
    #: already-resident pages covers
    overlap: float = 0.2
    #: pages per fault group (the driver's fault batch)
    batch_pages: int = 16
    #: modeled device-memory capacity; None sizes it at 75% of the mapped
    #: range (multi-pass apps re-fault, single-pass apps mostly fit),
    #: always clamped to the GPU's physical memory
    device_mem_bytes: Optional[int] = None
    #: readahead window ceiling, in batches
    max_window: int = 32

    def __post_init__(self):
        if self.page_bytes < 4096:
            raise RuntimeConfigError("page_bytes must be >= 4096")
        if self.fault_latency < 0:
            raise RuntimeConfigError("fault_latency must be non-negative")
        if not 0.0 <= self.prefetch_hit <= 1.0:
            raise RuntimeConfigError("prefetch_hit must be in [0, 1]")
        if not 0.0 <= self.overlap <= 1.0:
            raise RuntimeConfigError("overlap must be in [0, 1]")
        if self.batch_pages < 1:
            raise RuntimeConfigError("batch_pages must be >= 1")
        if self.max_window < 1:
            raise RuntimeConfigError("max_window must be >= 1")
        if (
            self.device_mem_bytes is not None
            and self.device_mem_bytes < self.page_bytes
        ):
            raise RuntimeConfigError(
                "device_mem_bytes must hold at least one page"
            )


class _UvmPlan:
    """What a run derives before its DES: the page geometry, the fault
    batches and their compute times, and the learned prefetcher's
    evidence. A pure function of the app, the dataset, the hardware, the
    compute-thread total, the :class:`UvmSpec` and the prefetcher."""

    def __init__(
        self,
        spec: UvmSpec,
        mode: str,
        app: Application,
        data: AppData,
        hw: HardwareSpec,
        threads: int,
    ):
        self.profile = app.access_profile(data)
        totals = Engine.totals(app, data, self.profile)
        self.units = totals["units"]
        self.passes = self.profile.passes
        self.writes = totals["write_bytes"] > 0

        # page-granular migration: any read inside a page moves the whole
        # page, so the paged range is the entire mapped dataset
        self.total_bytes = total_bytes = int(totals["data_bytes"])
        n_pages = -(-total_bytes // spec.page_bytes)
        self.batch_pages = min(spec.batch_pages, n_pages)
        if spec.device_mem_bytes is not None:
            capacity = spec.device_mem_bytes // spec.page_bytes
        else:
            capacity = max(int(0.75 * n_pages), 3 * self.batch_pages)
        capacity = min(
            capacity, max(self.batch_pages, hw.gpu.global_mem_bytes // spec.page_bytes)
        )
        # the current batch is pinned during compute, so it must always fit
        self.capacity = max(capacity, self.batch_pages)
        self.capacity_batches = self.capacity // self.batch_pages

        self.n_batches = -(-n_pages // self.batch_pages)
        self.batches = [
            list(range(b * self.batch_pages, min((b + 1) * self.batch_pages, n_pages)))
            for b in range(self.n_batches)
        ]
        self.n_instances = self.passes * self.n_batches
        # per-batch compute time on the original (uncoalesced) layout;
        # stage_time is linear in units, so these sum to the closed-form
        # per-pass total
        gpu = GpuDevice(hw.gpu)
        self.comp_times = []
        for batch in self.batches:
            # the batch's bytes: its pages, the last one maybe partial
            span = (
                min((batch[-1] + 1) * spec.page_bytes, total_bytes)
                - batch[0] * spec.page_bytes
            )
            cost = kernel_chunk_cost(
                self.profile, self.units * span / total_bytes, coalesced=False
            )
            self.comp_times.append(gpu.stage_time(cost, threads))
        self.learned_source = (
            _learned_source(app, data, self.units) if mode == "learned" else None
        )
        #: the fault-free run, once simulated (see :meth:`Engine._timed`)
        self.timeline: Optional[Timeline] = None


class _Chain(Event):
    """A UVM chain of steps (:mod:`repro.sim.core`) that may wait on
    several events at once."""

    __slots__ = ("_left", "_then")

    def _join(self, events: list, then) -> None:
        """Run ``then`` once every one of ``events`` (at least one) has
        succeeded, or fail on the first of them that fails.

        The wait pushes the NORMAL entry an ``all_of`` over them pushed, at
        the same moment, without building one: ``then`` when the last
        succeeds (at once if all have been processed), or the chain's
        :meth:`fail` when one fails. A member that fails after that is not
        defused, and raises out of ``run()`` where it pops. ``then`` is
        held only until its entry is pushed.
        """
        self._left = len(events)
        self._then = then
        for event in events:
            if event.callbacks is None:
                self._joined(event)
            else:
                event.callbacks.append(self._joined)

    def _joined(self, event: Event) -> None:
        then = self._then
        if then is None:
            return  # the join has already fired
        if not event._ok:
            event._defused = True
            self._then = None
            self.env.grant(self.fail, event._value)
            return
        self._left -= 1
        if not self._left:
            self._then = None
            self.env.grant(then)


class _UvmSimulation(_Chain):
    """One DES run of the paged executor over a :class:`_UvmPlan`.

    The run's kernel is a chain of steps, and the simulation is its
    completion event. Like every DES chain it pushes exactly the heap
    entries a generator process running the same loop pushed: the URGENT
    entry that starts it, each delay and join a step makes, and the NORMAL
    entry of its completion. Each migration is a :class:`_Migration`.
    """

    __slots__ = (
        "plan", "spec", "mode", "gpu", "table", "trace", "injector", "link",
        "dma", "inflight", "wb_events", "window", "fault_events",
        "fault_stall", "comp_time", "_g", "_pages", "_missing", "_start",
    )

    def __init__(
        self,
        plan: _UvmPlan,
        spec: UvmSpec,
        mode: str,
        config: EngineConfig,
    ):
        # Event.__init__, flattened
        self.env = env = Environment()
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.plan = plan
        self.spec = spec
        self.mode = mode
        hw = config.hardware
        self.gpu = GpuDevice(hw.gpu)
        self.table = PageTable(plan.total_bytes, spec.page_bytes, plan.capacity)
        self.trace = TraceRecorder()
        self.injector = as_injector(config.faults)
        self.link = PcieLink(env, hw.pcie, trace=self.trace, faults=self.injector)
        self.dma = DmaEngine(self.link)
        #: page -> migration currently carrying it
        self.inflight: dict = {}
        self.wb_events: list = []
        self.window = 1
        self.fault_events = 0
        self.fault_stall = 0.0
        self.comp_time = 0.0
        #: the fault batch the kernel is at
        self._g = 0

    # -------------------------------------------------------------- run
    def execute(self) -> Timeline:
        """Run the DES and keep the numbers a result is built from."""
        self.env.start(self._launch)
        self.env.run()
        table = self.table
        notes = {
            "pages": table.n_pages,
            "page_bytes": self.spec.page_bytes,
            "prefetch": self.mode,
            "batch_pages": self.plan.batch_pages,
            "capacity_pages": table.capacity_pages,
            "faults": self.fault_events,
            "fault_stall": self.fault_stall,
            "paging": table.stats(),
        }
        if self.mode == "learned":
            notes["prefetch_source"] = self.plan.learned_source
        if self.injector is not None:
            notes["fault_stats"] = self.injector.stats()
        metrics = RunMetrics(
            n_chunks=self.plan.n_instances,
            bytes_h2d=self.link.bytes_moved[H2D],
            bytes_d2h=self.link.bytes_moved[D2H],
            comp_time=self.comp_time,
            comm_time=(
                self.trace.busy_time("pcie-h2d") + self.trace.busy_time("pcie-d2h")
            ),
            kernel_launches=1,  # UVM keeps BigKernel's single-launch model
            notes=notes,
        )
        return Timeline(self.env.now, metrics, tuple(self.trace))

    # ----------------------------------------------------------- kernel
    def _launch(self, _value) -> None:
        # UVM keeps BigKernel's single-launch model: one kernel over the
        # whole dataset, paying the launch overhead exactly once
        self.env.call_later(self.gpu.spec.kernel_launch_overhead, self._launched)

    def _launched(self, _value) -> None:
        self.comp_time += self.gpu.spec.kernel_launch_overhead
        self._batch()

    def _batch(self) -> None:
        """Fault batch ``_g``: fault its missing pages in, or finish once
        the write-backs have landed."""
        plan = self.plan
        g = self._g
        if g == plan.n_instances:
            if self.wb_events:
                self._join(self.wb_events, self.succeed)
            else:
                self.succeed()
            return
        pages = self._pages = plan.batches[g % plan.n_batches]
        self.table.pin(pages)
        missing = self.table.missing(pages)
        if missing:
            self.fault_events += 1
            self._missing = missing
            self._start = self.env._now
            stall = self.spec.fault_latency * (1.0 - self.spec.overlap)
            self.env.call_later(stall, self._serviced)
            return
        if self.mode == "readahead":
            self.window = min(self.window + 1, self.spec.max_window)
        self._prefetch()

    def _serviced(self, _value) -> None:
        """The grouped fault is serviced: migrate the missing pages."""
        g, start, now = self._g, self._start, self.env._now
        self.fault_stall += now - start
        self.trace.record(
            "cpu", FAULT_SERVICE, start, now, chunk=g, pages=len(self._missing),
        )
        self._issue(g, self._missing, "demand", must=True)
        if self.mode == "readahead":
            self.window = max(1, self.window // 2)
        self._prefetch()

    def _prefetch(self) -> None:
        """Prefetch ahead, then wait for the batch's pages to land."""
        self._issue_prefetches(self._g)
        inflight = self.inflight
        waits = [inflight[p] for p in self._pages if p in inflight]
        if waits:
            self._join(waits, self._compute)
        else:
            self._compute(None)

    def _compute(self, _value) -> None:
        plan = self.plan
        self._start = self.env._now
        self.env.call_later(
            plan.comp_times[self._g % plan.n_batches], self._computed
        )

    def _computed(self, _value) -> None:
        plan, g, pages = self.plan, self._g, self._pages
        start, now = self._start, self.env._now
        self.comp_time += now - start
        self.trace.record("gpu", STAGE_COMPUTE, start, now, chunk=g)
        self.table.touch(pages, dirty=plan.writes)
        if plan.writes and g // plan.n_batches == plan.passes - 1:
            # eager asynchronous write-back right after the final pass
            # over this batch; only the tail remains at the barrier
            self._flush(self.table.take_dirty(pages))
        self.table.unpin(pages)
        self._g = g + 1
        self._batch()

    # -------------------------------------------------------- migrations
    def _issue(self, g: int, pages: list[int], kind: str, must: bool) -> bool:
        victims = self.table.admit(pages, must=must, kind=kind)
        if victims is None:
            return False
        self._flush([p for p, _, dirty in victims if dirty])
        migration = _Migration(self, g, pages, kind)
        for p in pages:
            self.inflight[p] = migration
        return True

    def _flush(self, pages: list[int]) -> None:
        """Asynchronous dirty-page write-back (evictions and completion);
        no ``chunk`` meta — write-back is not a forward pipeline stage."""
        for _, count, nbytes in self.table.page_runs(pages):
            self.wb_events.append(
                self.dma.copy_async(
                    nbytes, direction=D2H, pinned=True,
                    label=STAGE_WRITEBACK_XFER, pages=count,
                )
            )

    # -------------------------------------------------------- prefetchers
    def _issue_prefetches(self, g: int) -> None:
        plan = self.plan
        n_batches = plan.n_batches
        if self.mode == "none":
            # the driver's partial readahead: a slice of the *next* batch
            # rides along, sized by the hit fraction
            k = int(self.spec.prefetch_hit * plan.batch_pages + 0.5)
            nxt = g + 1
            if (
                k > 0
                and nxt < plan.n_instances
                and nxt // n_batches == g // n_batches
            ):
                want = self.table.missing(plan.batches[nxt % n_batches])[:k]
                if want:
                    self._issue(nxt, want, "prefetch", must=False)
            return
        if self.mode == "readahead":
            window, cross = self.window, False
        else:  # learned
            window = self.spec.max_window
            # a recognized descriptor predicts the wrap back to the start,
            # so the window survives pass boundaries
            cross = plan.learned_source in ("affine", "stride")
        # leave two batches of slack so demand admission stays feasible
        window = min(window, max(1, plan.capacity_batches - 2))
        for d in range(1, window + 1):
            nxt = g + d
            if nxt >= plan.n_instances:
                break
            if not cross and nxt // n_batches != g // n_batches:
                break
            want = self.table.missing(plan.batches[nxt % n_batches])
            if want and not self._issue(nxt, want, "prefetch", must=False):
                break


class _Migration(_Chain):
    """One migration of pages host-to-device: a DMA per contiguous run of
    pages, then the pages turn resident. A chain of steps that pushes
    what a generator process doing the same pushed; its DMAs start when
    its URGENT start entry pops."""

    __slots__ = ("sim", "g", "pages", "kind")

    def __init__(self, sim: _UvmSimulation, g: int, pages: list[int], kind: str):
        # Event.__init__, flattened
        self.env = env = sim.env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.sim = sim
        self.g = g
        self.pages = pages
        self.kind = kind
        env.start(self._copy)

    def _copy(self, _value) -> None:
        sim = self.sim
        events = [
            sim.dma.copy_async(
                nbytes, direction=H2D, pinned=True,
                label=STAGE_TRANSFER, chunk=self.g, kind=self.kind, pages=count,
            )
            for _, count, nbytes in sim.table.page_runs(self.pages)
        ]
        self._join(events, self._landed)

    def _landed(self, _value) -> None:
        sim = self.sim
        sim.table.complete(self.pages)
        for p in self.pages:
            sim.inflight.pop(p, None)
        self.succeed()


def _learned_source(app: Application, data: AppData, units: int) -> str:
    """What evidence the pattern prefetcher trains on: a closed-form
    affine address stream when the kernel slices to one, an online
    stride recognition of the first chunk's reads otherwise, or plain
    access history (degrading to a same-pass window)."""
    from repro.kernelc.compile import affine_streams
    from repro.kernelc.slicing import make_addrgen_kernel
    from repro.runtime.pattern import PatternRecognizer

    kernel = app.kernel()
    if kernel is not None:
        try:
            streams = affine_streams(make_addrgen_kernel(kernel))
        except SlicingError:
            streams = None
        if streams is not None and streams[0] is not None:
            if streams[0].rec_stride > 0:
                return "affine"
    offsets = app.chunk_read_offsets(data, 0, min(units, 64))
    pattern = PatternRecognizer().recognize(offsets)
    if pattern is not None and pattern.cycle_span > 0:
        return "stride"
    return "history"


class GpuUvmEngine(Engine):
    """Fault-driven unified-memory execution (no explicit transfers).

    Plans are memoized per engine instance, keyed on what a plan and its
    timeline read besides the instance's spec and prefetcher: the app
    instance, the dataset fingerprint, the hardware and the compute-thread
    total. A plan keeps its fault-free timeline (:meth:`Engine._timed`).
    """

    name = "gpu_uvm"
    display_name = "GPU Unified Memory"
    #: the prefetcher: "none" keeps the driver's partial readahead only;
    #: each prefetcher is its own engine class below
    prefetch = "none"

    def __init__(self, spec: UvmSpec = UvmSpec()):
        self.spec = spec
        # plans keyed per instance (the spec is instance state)
        self._plan_cache = Memo("uvm.plan", 64)

    def _params(self) -> dict:
        return {"spec": self.spec}

    def _plan(
        self, app: Application, data: AppData, config: EngineConfig
    ) -> _UvmPlan:
        threads = config.total_compute_threads
        cache_key = (app, data_fingerprint(data), config.hardware, threads)
        plan = self._plan_cache.get(cache_key)
        if plan is None:
            plan = _UvmPlan(
                self.spec, self.prefetch, app, data, config.hardware, threads
            )
            self._plan_cache.put(cache_key, plan)
        return plan

    def run(
        self,
        app: Application,
        data: AppData,
        config: Optional[EngineConfig] = None,
    ) -> RunResult:
        config = config or EngineConfig()
        plan = self._plan(app, data, config)
        timeline = self._timed(
            plan,
            config,
            lambda: _UvmSimulation(plan, self.spec, self.prefetch, config).execute(),
        )
        output = None
        if config.functional:
            upc, _ = chunk_plan(
                plan.units, config.chunk_bytes, plan.profile.record_bytes
            )
            output = self._functional_output(app, data, upc)
        return timeline.result(self.name, app.name, output)


class UvmReadaheadEngine(GpuUvmEngine):
    """UVM + adaptive sequential readahead prefetcher."""

    name = "uvm_readahead"
    display_name = "GPU UVM + Readahead Prefetch"
    prefetch = "readahead"


class UvmLearnedEngine(GpuUvmEngine):
    """UVM + pattern-descriptor ("learned") prefetcher."""

    name = "uvm_learned"
    display_name = "GPU UVM + Learned Prefetch"
    prefetch = "learned"
