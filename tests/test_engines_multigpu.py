"""Property battery for the sharded multi-GPU scale-out engine.

Each property is one law the scale-out model must obey regardless of
fabric shape:

* **differential oracle** — the merged output of every sharded run
  equals the serial CPU oracle's under the app's ``outputs_equal``;
  sharding plus the cross-GPU merge must be invisible to the result.
  That is bit-equality for every app but Netflix, whose fp64 moment
  table is merged in shard order and so differs in its last bits;
* **per-shard invariants** — every shard's DES trace passes the full
  pipeline invariant battery, and the per-shard PCIe ledgers sum to the
  run's aggregate byte counters (nothing dropped, nothing invented);
* **partition conservation** — the shard plan covers the unit range
  exactly once;
* **determinism** — equal seeds produce bit-identical shard traces
  (asserted by fingerprint);
* **monotonicity** — a shared root complex never beats dedicated links,
  and on compute-bound apps more GPUs never hurt. Transfer-bound apps
  (netflix, dna) are deliberately excluded from the second law: they
  plateau and can *regress* at high K where merge cost and the
  NUMA-split assembly floor eat the shrinking per-shard win;
* **merge correctness** — resident state merges across shards (sum /
  logical-or / keep-if-equal) reproduce the single-GPU state on the
  writer and multi-pass apps, and the merge stage charges nonzero time
  exactly when there is state to exchange;
* **fault plans** — an active plan reaches every shard's links, so a
  degraded link or a retried DMA lengthens the run on either fabric.
"""

import hashlib

import pytest

from repro.apps import get_app
from repro.engines import BigKernelEngine, CpuSerialEngine, EngineConfig
from repro.engines.multigpu import MultiGpuBigKernelEngine
from repro.faults import FaultPlan
from repro.units import KiB, MiB
from repro.verify.invariants import audit_sharded_run

DATA_BYTES = 1 * MiB
SEED = 11
CFG = EngineConfig(chunk_bytes=128 * KiB)
#: shard traces only exist on the true DES (totals are fastpath-identical)
DES = CFG.with_(fastpath=False)

ALL_APPS = ("kmeans", "wordcount", "netflix", "opinion", "dna", "mastercard")
#: apps whose runtime is dominated by compute, not the PCIe link — the
#: embarrassingly parallel regime where adding GPUs must never hurt
COMPUTE_BOUND = ("kmeans", "wordcount", "opinion", "mastercard")


@pytest.fixture(scope="module")
def workloads():
    out = {}
    for name in ALL_APPS:
        app = get_app(name)
        out[name] = (app, app.generate(n_bytes=DATA_BYTES, seed=SEED))
    return out


def _trace_fingerprint(details) -> str:
    """SHA-256 over every shard's interval stream, order-sensitive."""
    h = hashlib.sha256()
    for d in details:
        h.update(f"shard={d['shard']} node={d['node']}\n".encode())
        for iv in d["trace"]:
            h.update(
                f"{iv.track}|{iv.label}|{iv.start!r}|{iv.end!r}\n".encode()
            )
    return h.hexdigest()


class TestDifferentialOracle:
    @pytest.mark.parametrize("name", ALL_APPS)
    @pytest.mark.parametrize("n_gpus", (2, 4))
    def test_merged_output_matches_serial_oracle(self, workloads, name, n_gpus):
        app, data = workloads[name]
        ref = CpuSerialEngine().run(app, data, CFG)
        res = MultiGpuBigKernelEngine(n_gpus).run(app, data, CFG)
        assert app.outputs_equal(ref.output, res.output)

    def test_only_netflix_merged_output_is_not_bit_equal(self):
        """At 4 MiB (seed 7, 512 KiB chunks) the six integer-output apps
        merge bit-equal on 2 and 4 GPUs; Netflix's fp64 moment table,
        summed in shard order, is equal only within its ``outputs_equal``
        tolerance (the graded matrix passes, ``bit_equal`` does not)."""
        from repro.apps import ALL_APPS as APP_CLASSES
        from repro.bench import BenchSettings, run_matrix
        from repro.serve import bit_equal

        matrix = run_matrix(
            BenchSettings(4 * MiB, 7, EngineConfig(chunk_bytes=512 * KiB)),
            engines=[CpuSerialEngine(), MultiGpuBigKernelEngine(2),
                     MultiGpuBigKernelEngine(4)],
        )
        assert matrix.report.ok
        bit_equal_apps = {
            app for app in matrix.apps
            if all(bit_equal(matrix.get(app, "cpu_serial").output,
                             matrix.get(app, e).output)
                   for e in matrix.engines[1:])
        }
        assert len(matrix.apps) == len(APP_CLASSES) == 7
        assert bit_equal_apps == set(matrix.apps) - {"netflix"}
        for engine in matrix.engines[1:]:
            assert not bit_equal(matrix.get("netflix", "cpu_serial").output,
                                 matrix.get("netflix", engine).output)

    @pytest.mark.parametrize("shared", (False, True))
    def test_shared_link_and_numa_blind_do_not_change_output(
        self, workloads, shared
    ):
        app, data = workloads["wordcount"]
        ref = CpuSerialEngine().run(app, data, CFG)
        eng = MultiGpuBigKernelEngine(3, shared_link=shared, numa_aware=False)
        res = eng.run(app, data, CFG)
        assert app.outputs_equal(ref.output, res.output)


class TestPerShardInvariants:
    @pytest.mark.parametrize("name", ("netflix", "kmeans"))
    @pytest.mark.parametrize("shared", (False, True))
    def test_every_shard_trace_passes_battery(self, workloads, name, shared):
        app, data = workloads[name]
        eng = MultiGpuBigKernelEngine(3, shared_link=shared)
        res = eng.run(app, data, DES)
        assert res.shard_details is not None
        assert audit_sharded_run(res) == []

    def test_fastpath_runs_record_no_shard_traces(self, workloads):
        app, data = workloads["netflix"]
        res = MultiGpuBigKernelEngine(2).run(app, data, CFG)
        assert res.shard_details is None
        problems = audit_sharded_run(res)
        assert len(problems) == 1 and "no shard traces" in problems[0]


class TestPartitionConservation:
    @pytest.mark.parametrize("n_gpus", (2, 3, 4, 8))
    def test_shard_units_cover_range_exactly_once(self, workloads, n_gpus):
        app, data = workloads["mastercard"]
        total = MultiGpuBigKernelEngine(1).run(app, data, DES)
        res = MultiGpuBigKernelEngine(n_gpus).run(app, data, DES)
        assert sum(d["units"] for d in total.shard_details) == sum(
            d["units"] for d in res.shard_details
        )
        assert all(d["units"] >= 1 for d in res.shard_details)
        assert len(res.shard_details) <= n_gpus

    def test_shard_byte_ledgers_sum_to_run_counters(self, workloads):
        app, data = workloads["kmeans"]
        res = MultiGpuBigKernelEngine(3).run(app, data, DES)
        assert (
            sum(d["bytes_h2d"] for d in res.shard_details)
            == res.metrics.bytes_h2d
        )
        assert (
            sum(d["bytes_d2h"] for d in res.shard_details)
            == res.metrics.bytes_d2h
        )
        assert res.metrics.bytes_d2h > 0  # kmeans writes back

    def test_payload_conserved_vs_single_gpu(self, workloads):
        app, data = workloads["netflix"]
        one = MultiGpuBigKernelEngine(1).run(app, data, DES)
        four = MultiGpuBigKernelEngine(4).run(app, data, DES)

        def payload(details):
            return sum(
                c.xfer_bytes for d in details for c in d["chunks"]
            )

        assert payload(one.shard_details) == payload(four.shard_details)


class TestDeterminism:
    @pytest.mark.parametrize("shared", (False, True))
    def test_trace_fingerprint_stable_across_runs(self, workloads, shared):
        app, data = workloads["opinion"]

        def run():
            # fresh engine: no memoized schedule can leak between runs
            eng = MultiGpuBigKernelEngine(4, shared_link=shared)
            return eng.run(app, data, DES)

        a, b = run(), run()
        assert a.sim_time == b.sim_time
        assert _trace_fingerprint(a.shard_details) == _trace_fingerprint(
            b.shard_details
        )


class TestMonotonicity:
    @pytest.mark.parametrize("name", COMPUTE_BOUND)
    def test_more_gpus_never_hurt_compute_bound_apps(self, workloads, name):
        app, data = workloads[name]
        times = {
            n: MultiGpuBigKernelEngine(n).run(app, data, CFG).sim_time
            for n in (1, 2, 4)
        }
        assert times[2] <= times[1] * (1 + 1e-9)
        assert times[4] <= times[2] * (1 + 1e-9)

    @pytest.mark.parametrize("name", ALL_APPS)
    def test_shared_root_complex_never_beats_dedicated(self, workloads, name):
        app, data = workloads[name]
        dedicated = MultiGpuBigKernelEngine(2, shared_link=False)
        shared = MultiGpuBigKernelEngine(2, shared_link=True)
        t_ded = dedicated.run(app, data, CFG).sim_time
        t_sh = shared.run(app, data, CFG).sim_time
        assert t_sh >= t_ded * (1 - 1e-12)

    def test_numa_blind_placement_never_faster(self, workloads):
        app, data = workloads["wordcount"]
        aware = MultiGpuBigKernelEngine(4, numa_aware=True)
        blind = MultiGpuBigKernelEngine(4, numa_aware=False)
        t_aware = aware.run(app, data, CFG).sim_time
        t_blind = blind.run(app, data, CFG).sim_time
        assert t_blind >= t_aware * (1 - 1e-12)

    def test_fastpath_matches_des_exactly_on_dedicated_fabric(self, workloads):
        app, data = workloads["netflix"]
        eng = MultiGpuBigKernelEngine(3)
        fast = eng.run(app, data, CFG).sim_time
        slow = MultiGpuBigKernelEngine(3).run(app, data, DES).sim_time
        assert fast == slow


class TestMergeStage:
    @pytest.mark.parametrize("name", ("kmeans", "wordcount"))
    def test_merge_reproduces_single_gpu_state(self, workloads, name):
        app, data = workloads[name]
        one = MultiGpuBigKernelEngine(1).run(app, data, CFG)
        four = MultiGpuBigKernelEngine(4).run(app, data, CFG)
        assert app.outputs_equal(one.output, four.output)

    @pytest.mark.parametrize("name", ("kmeans", "wordcount"))
    def test_merge_charges_time_only_when_sharded(self, workloads, name):
        app, data = workloads[name]
        one = MultiGpuBigKernelEngine(1).run(app, data, CFG)
        two = MultiGpuBigKernelEngine(2).run(app, data, CFG)
        assert one.metrics.notes["merge_time"] == 0.0
        assert two.metrics.notes["merge_time"] > 0.0

    def test_merge_states_sums_disjoint_count_tables(self):
        import numpy as np

        app = get_app("wordcount")
        data = app.generate(n_bytes=256 * KiB, seed=3)
        shards = [app.make_state(data) for _ in range(3)]
        for i, s in enumerate(shards):
            s["counts"][i] = 10 * (i + 1)
        merged = app.merge_states(data, shards)
        assert np.array_equal(
            merged["counts"], sum(s["counts"] for s in shards)
        )

    def test_kmeans_merge_sums_assignment_tallies(self):
        app = get_app("kmeans")
        data = app.generate(n_bytes=256 * KiB, seed=3)
        merged = app.merge_states(
            data, [{"assigned": 5}, {"assigned": 7}, {"assigned": 5}]
        )
        assert merged["assigned"] == 17


class TestFaultPlans:
    """An active plan reaches every shard's links and forces the DES,
    the run records ``fault_stats``, and the output is untouched."""

    PLANS = {
        "pcie-degrade": FaultPlan().pcie.degrade(gbps=1.0),
        "dma-retry": FaultPlan().dma.error(chunk=1, retries=2),
    }

    @pytest.mark.parametrize("shared", [False, True], ids=["dedicated", "shared"])
    @pytest.mark.parametrize("plan", sorted(PLANS))
    def test_fault_lengthens_a_two_gpu_run(self, workloads, plan, shared):
        app, data = workloads["wordcount"]
        eng = MultiGpuBigKernelEngine(n_gpus=2, shared_link=shared)
        clean = eng.run(app, data, CFG)
        faulted = eng.run(app, data, CFG.with_(faults=self.PLANS[plan]))
        assert faulted.sim_time > clean.sim_time
        stats = faulted.metrics.notes["fault_stats"]
        if plan == "dma-retry":  # chunk 1 of each shard, twice
            assert stats["retries_injected"] == 4
        else:
            assert stats["degraded_transfers"] > 0
        assert app.outputs_equal(clean.output, faulted.output)

    @pytest.mark.parametrize("shared", [False, True], ids=["dedicated", "shared"])
    @pytest.mark.parametrize("plan", sorted(PLANS))
    def test_faulted_shard_traces_pass_battery(self, workloads, plan, shared):
        """With the default fast path on, an active plan still runs the
        combined DES, so the run keeps per-shard traces; failed attempts
        are kept out of each shard's byte ledger."""
        app, data = workloads["wordcount"]
        eng = MultiGpuBigKernelEngine(n_gpus=2, shared_link=shared)
        res = eng.run(app, data, CFG.with_(faults=self.PLANS[plan]))
        assert audit_sharded_run(res) == []


class TestPinnedPressure:
    """The shards allocate their buffers from one host pool, so under
    ``pinned.deny`` each plans against its share of the budget, and the
    run degrades, or falls back to double buffering, as ``bigkernel``
    does."""

    CHUNK = CFG.with_(chunk_bytes=256 * KiB)

    @staticmethod
    def _wordcount():
        app = get_app("wordcount")
        return app, app.generate(n_bytes=1 * MiB, seed=7)

    def test_shards_split_the_denied_budget(self):
        app, data = self._wordcount()
        cfg = self.CHUNK.with_(faults=FaultPlan().pinned.deny(after_bytes=1 * MiB))
        single = BigKernelEngine().run(app, data, cfg)
        sharded = MultiGpuBigKernelEngine(n_gpus=2).run(app, data, cfg)
        blocks = single.metrics.notes["degradations"]["blocks_shrunk_to"]
        shard_blocks = sharded.metrics.notes["degradations"]["blocks_shrunk_to"]
        # two shards' buffer sets fit where one run's did
        assert 2 * shard_blocks <= blocks
        assert app.outputs_equal(single.output, sharded.output)

    def test_no_buffer_set_fits_falls_back_to_gpu_double(self):
        app, data = self._wordcount()
        cfg = self.CHUNK.with_(faults=FaultPlan().pinned.deny(after_bytes=64 * KiB))
        res = MultiGpuBigKernelEngine(n_gpus=2).run(app, data, cfg)
        assert res.engine == "gpu_double"
        assert res.metrics.notes["degraded_from"] == "bigkernel_multigpu2"
        assert "pinned-memory-pressure" in res.metrics.notes["degraded_reason"]
        oracle = CpuSerialEngine().run(app, data, CFG)
        assert app.outputs_equal(oracle.output, res.output)


class TestPredictorCornerGeometries:
    """The worst fill/drain corners of the fuzz draw space, pinned.

    With only 2-3 chunks per shard the steady-state bound family drifts
    up to ~9% from the DES (both directions); these are the worst cells
    found by an exhaustive sweep of the fuzz space, held to
    MULTIGPU_SHARED_TOL so a tolerance regression fails here before it
    flakes a fuzz seed in CI.
    """

    # (app, data KiB, n_gpus, shared, numa_aware, chunk KiB, ring)
    CORNERS = (
        ("kmeans", 512, 4, True, True, 64, 2),
        ("kmeans", 1024, 2, True, True, 128, 3),
        ("kmeans", 2048, 2, True, True, 256, 4),
        ("mastercard", 1024, 8, False, False, 64, 2),
    )

    @pytest.mark.parametrize("corner", CORNERS, ids=lambda c: f"{c[0]}-g{c[2]}")
    def test_worst_corner_cells_stay_within_shared_tolerance(self, corner):
        from repro.analytic import predict_run
        from repro.verify.differential import MULTIGPU_SHARED_TOL

        name, data_kib, n_gpus, shared, numa, chunk_kib, ring = corner
        app = get_app(name)
        data = app.generate(n_bytes=data_kib * KiB, seed=3)
        cfg = EngineConfig(
            chunk_bytes=chunk_kib * KiB, ring_depth=ring, fastpath=False
        )
        eng = MultiGpuBigKernelEngine(
            n_gpus=n_gpus, shared_link=shared, numa_aware=numa
        )
        res = eng.run(app, data, config=cfg)
        pred = predict_run(app, data, cfg, engine=eng)
        rel = abs(pred.sim_time - res.sim_time) / res.sim_time
        assert rel <= MULTIGPU_SHARED_TOL, (
            f"{eng.name} on {name}: corner-geometry rel err {rel:.3e} "
            f"exceeds MULTIGPU_SHARED_TOL {MULTIGPU_SHARED_TOL:g}"
        )
