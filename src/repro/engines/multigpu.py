"""Multi-GPU BigKernel: contention-aware K-device scale-out.

The paper's pipeline is per-thread-block and its CPU threads are
per-block, so nothing in the design ties it to one device: this engine
partitions the unit range across ``n_gpus`` simulated GPUs, each running
its own 4/6-stage pipeline. Scale-out is *not* free, and the model prices
the three resources K devices actually share:

* **PCIe root complex** — with ``shared_link=True`` every shard's DMAs
  queue on one :class:`~repro.hw.pcie.PcieLink` inside a single combined
  DES (:func:`repro.runtime.multigpu.run_pipeline_sharded`), so
  root-complex serialization emerges from the FIFO grant queue the way
  the SUMMA D2H serial-collection bottleneck does. Dedicated links
  (dual-x16 boards) keep per-shard queues.
* **NUMA memory bandwidth** — each shard's assembly threads stream from
  the node their GPU hangs off; the per-chunk assembly floor is derated
  by :func:`repro.hw.topology.shard_mem_bandwidth` (node bandwidth
  divided among that node's shards, with a penalty when placement is
  NUMA-blind).
* **Host threads** — ``cpu.threads // n_gpus`` assembly workers per
  shard, as before.

Apps with global accumulator outputs (wordcount's count table, kmeans'
assignment counts, netflix's rating moments, mastercard's customer set)
get a **cross-GPU reduce/merge stage**: each shard runs the kernel over
its own unit range against its own state, pass boundaries merge + re-
broadcast the state (mastercard's two-pass protocol), and the final
merge feeds one ``finalize``. The merge's D2H collection + host
reduction time comes from :func:`repro.hw.topology.merge_cost` — the
same closed form the analytic predictor uses, so both agree to the bit
on that component.

The related work the paper cites (Huynh et al., PPoPP'12) maps streaming
graphs onto multi-GPU systems the same way: partition the stream, keep
each device's pipeline independent, synchronize only at the barriers.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Optional

from repro.apps.base import AppData, Application
from repro.engines.base import EngineConfig, RunMetrics, RunResult
from repro.engines.bigkernel import BigKernelEngine, BigKernelFeatures
from repro.hw.gpu import GpuDevice
from repro.hw.topology import (
    FabricSpec,
    merge_cost,
    node_of_shard,
    shard_mem_bandwidth,
    shard_workers,
    state_nbytes,
)
from repro.runtime.multigpu import run_pipeline_sharded
from repro.runtime.pipeline import (
    STAGE_COMPUTE,
    STAGE_TRANSFER,
    STAGE_WRITEBACK_XFER,
    run_pipeline,
)


def copy_state(state: Any) -> Any:
    """Deep-enough copy of an app accumulator state for re-broadcast."""
    import numpy as np

    if isinstance(state, dict):
        return {
            k: v.copy() if isinstance(v, np.ndarray) else v
            for k, v in state.items()
        }
    return state


class MultiGpuBigKernelEngine(BigKernelEngine):
    """BigKernel sharded across several simulated GPUs."""

    name = "bigkernel_multigpu"
    display_name = "GPU BigKernel (multi-GPU)"

    def __init__(
        self,
        n_gpus: int = 2,
        features: BigKernelFeatures = BigKernelFeatures.full(),
        shared_link: bool = False,
        numa_aware: bool = True,
    ):
        super().__init__(features)
        #: shared host-resource topology (validates n_gpus >= 1)
        self.fabric = FabricSpec(
            n_gpus=n_gpus, shared_link=shared_link, numa_aware=numa_aware
        )
        self.n_gpus = n_gpus
        #: True models all GPUs behind one PCIe root complex (transfers
        #: serialize on its FIFO); False models one x16 link per device
        self.shared_link = shared_link
        #: False leaves assembly threads unplaced (interconnect penalty)
        self.numa_aware = numa_aware
        # the name is the engine's *identity*: it must encode every
        # constructor knob that changes the timeline, or sweep/run-cache
        # entries for two different configurations would collide
        suffix = "_shared" if shared_link else ""
        if not numa_aware:
            suffix += "_numablind"
        self.name = f"bigkernel_multigpu{n_gpus}{suffix}"

    @property
    def cache_key(self) -> str:
        return f"{self.name}:{self.features.label}"

    # ------------------------------------------------------------ planning
    def _shard_plan(self, app: Application, data: AppData, config: EngineConfig):
        """Per-shard schedules with NUMA-derated assembly costs.

        Returns ``(plans, workers)`` where each plan is ``(shard, units,
        schedule)``. Shards on the same node with equal unit counts share
        a memoized schedule (the cache keys on the derated hardware).
        """
        shards, workers = self._shards(config.hardware, app.n_units(data))
        plans = []
        for g, su, shard_hw in shards:
            shard_cfg = config
            if shard_hw is not config.hardware:
                shard_cfg = config.with_(hardware=shard_hw)
            sched = self._schedule(
                app, data, shard_cfg, units=su, workers_override=workers
            )
            plans.append((g, su, sched))
        return plans, workers

    def _shards(self, hw, units: int) -> tuple[list, int]:
        """``(shards, workers)``: ``(shard, units, hardware)`` of each
        non-empty shard, and the assembly workers each shard gets.

        Units split ceil-evenly across the GPUs in order; each shard's
        hardware carries its NUMA-derated memory bandwidth.
        """
        fabric = self.fabric
        per_shard = -(-units // fabric.n_gpus)  # ceil
        shards = []
        remaining = units
        for g in range(fabric.n_gpus):
            su = min(per_shard, remaining)
            if su <= 0:
                break
            remaining -= su
            bw = shard_mem_bandwidth(hw.cpu, g, fabric)
            shard_hw = hw
            if bw != hw.cpu.mem_bandwidth:
                shard_hw = replace(hw, cpu=replace(hw.cpu, mem_bandwidth=bw))
            shards.append((g, su, shard_hw))
        return shards, shard_workers(hw.cpu, fabric)

    def _merge_time(self, app: Application, data: AppData, hw, n_shards: int) -> float:
        """Simulated cost of the cross-GPU reduce/merge stage."""
        fabric = self.fabric
        if n_shards != fabric.n_gpus:
            fabric = replace(fabric, n_gpus=n_shards)
        return merge_cost(
            hw, fabric, state_nbytes(app.make_state(data)), app.n_passes
        )

    # ------------------------------------------------- functional sharding
    @staticmethod
    def _partition_bounds(bounds, shard_units):
        """Split the global chunk-bound list contiguously across shards.

        Bounds stay whole (apps align them to record/separator
        boundaries), so a shard boundary shifts to chunk granularity; the
        unit totals still track the schedule's shard split.
        """
        parts: list[list] = [[] for _ in shard_units]
        targets = []
        acc = 0
        for su in shard_units:
            acc += su
            targets.append(acc)
        g = 0
        done = 0
        for lo, hi in bounds:
            while g < len(targets) - 1 and done >= targets[g]:
                g += 1
            parts[g].append((lo, hi))
            done += hi - lo
        return parts

    def _sharded_output(self, app: Application, data: AppData, plans) -> Any:
        """Run the kernel sharded and merge: the functional scale-out path.

        Mirrors the timeline model exactly — per-shard states over
        per-shard unit ranges, a merge + re-broadcast at every pass
        boundary, one merge + ``finalize`` at the end — so merge-stage
        correctness is exercised by every functional run, not just by the
        verification battery.
        """
        upc = plans[0][2].upc
        bounds = app.chunk_bounds(data, upc)
        parts = self._partition_bounds(bounds, [su for _, su, _ in plans])
        states = [app.make_state(data) for _ in parts]
        for pass_idx in range(app.n_passes):
            for state in states:
                app.start_pass(data, state, pass_idx)
            for state, part in zip(states, parts):
                for lo, hi in part:
                    app.process_chunk(data, state, lo, hi)
            if pass_idx < app.n_passes - 1:
                merged = app.merge_states(data, states)
                states = [copy_state(merged) for _ in parts]
        return app.finalize(data, app.merge_states(data, states))

    # ----------------------------------------------------------------- run
    def run(
        self,
        app: Application,
        data: AppData,
        config: Optional[EngineConfig] = None,
    ) -> RunResult:
        config = config or EngineConfig()
        hw = config.hardware
        gpu = GpuDevice(hw.gpu)

        plans, workers = self._shard_plan(app, data, config)
        n_shards = len(plans)
        merge_time = self._merge_time(app, data, hw, n_shards)

        shard_details = None
        if self.shared_link or not config.fastpath:
            # one combined DES: shared-link contention must emerge from
            # the single FIFO; with dedicated links the shards share no
            # resource, so the combined timeline equals the independent
            # one — but yields per-shard traces for verification
            sharded = run_pipeline_sharded(
                hw,
                [sched.chunks for _, _, sched in plans],
                [sched.pipe_cfg for _, _, sched in plans],
                shared_link=self.shared_link,
            )
            pipeline_total = sharded.total_time
            shard_results = sharded.shards
            from repro.runtime.fastpath import TemplatedChunks

            shard_details = []
            for (g, su, sched), pres in zip(plans, shard_results):
                chunks = sched.chunks
                if isinstance(chunks, TemplatedChunks):
                    chunks = chunks.materialize()
                shard_details.append(
                    {
                        "shard": g,
                        "units": su,
                        "node": node_of_shard(g, self.fabric),
                        "chunks": chunks,
                        "pipe_cfg": sched.pipe_cfg,
                        "trace": pres.trace,
                        "bytes_h2d": pres.bytes_h2d,
                        "bytes_d2h": pres.bytes_d2h,
                    }
                )
        else:
            # dedicated links + fastpath: per-shard closed form (bit-
            # identical to the DES), total = slowest shard
            shard_results = [
                run_pipeline(
                    hw, sched.chunks, sched.pipe_cfg, fastpath=config.fastpath
                )
                for _, _, sched in plans
            ]
            pipeline_total = max(r.total_time for r in shard_results)

        sim_time = (
            pipeline_total + gpu.spec.kernel_launch_overhead + merge_time
        )

        output = None
        if config.functional:
            output = self._sharded_output(app, data, plans)

        stage_totals: dict = {}
        for r in shard_results:
            for k, v in r.stage_totals.items():
                stage_totals[k] = stage_totals.get(k, 0.0) + v
        comm = stage_totals.get(STAGE_TRANSFER, 0.0) + stage_totals.get(
            STAGE_WRITEBACK_XFER, 0.0
        )
        sched0 = plans[0][2]
        metrics = RunMetrics(
            n_chunks=sum(r.n_chunks for r in shard_results),
            bytes_h2d=sum(r.bytes_h2d for r in shard_results),
            bytes_d2h=sum(r.bytes_d2h for r in shard_results),
            comp_time=stage_totals.get(STAGE_COMPUTE, 0.0),
            comm_time=comm,
            stage_totals=stage_totals,
            pattern_fraction=sched0.pattern_fraction,
            kernel_launches=n_shards,  # one launch per device
            notes={
                "n_gpus": n_shards,
                "shared_link": self.shared_link,
                "numa_aware": self.numa_aware,
                "workers_per_gpu": workers,
                "units_per_shard": [su for _, su, _ in plans],
                "shard_nodes": [
                    node_of_shard(g, self.fabric) for g, _, _ in plans
                ],
                "merge_time": merge_time,
                "features": self.features.label,
            },
        )
        result = RunResult(self.name, app.name, output, sim_time, metrics)
        # per-shard traces/chunks for the verification battery (DES runs
        # only); a plain attribute, not a field — figure harnesses and
        # caches treat RunResult by value
        result.shard_details = shard_details
        return result
