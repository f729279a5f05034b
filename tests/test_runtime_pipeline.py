"""Tests for the 4/6-stage pipeline scheduling behaviour."""

import operator
from functools import reduce

import pytest

from repro.errors import RuntimeConfigError
from repro.hw.spec import DEFAULT_HARDWARE
from repro.runtime.pipeline import (
    STAGE_ADDR_GEN,
    STAGE_ASSEMBLY,
    STAGE_COMPUTE,
    STAGE_TRANSFER,
    STAGE_WRITEBACK_SCATTER,
    STAGE_WRITEBACK_XFER,
    ChunkWork,
    PipelineConfig,
    PipelineResult,
    run_pipeline,
)
from repro.runtime.multigpu import run_pipeline_sharded
from repro.units import MiB


def make_chunks(
    n,
    t_ag=0.001,
    t_asm=0.002,
    xfer=2 * MiB,
    t_comp=0.003,
    addr_bytes=0,
    write_bytes=0,
    t_scatter=0.0,
):
    return [
        ChunkWork(
            index=i,
            t_addr_gen=t_ag,
            addr_bytes_d2h=addr_bytes,
            t_assembly=t_asm,
            xfer_bytes=xfer,
            t_compute=t_comp,
            write_bytes=write_bytes,
            t_scatter=t_scatter,
        )
        for i in range(n)
    ]


HW = DEFAULT_HARDWARE


def xfer_time(nbytes):
    return HW.pcie.transfer_time(nbytes)


class TestPipelineOverlap:
    def test_total_close_to_bottleneck(self):
        """With balanced stages, total ~= n * max-stage + fill, far below
        the serialized sum."""
        n = 40
        chunks = make_chunks(n, t_ag=0.001, t_asm=0.0025, xfer=16 * MiB, t_comp=0.003)
        res = run_pipeline(HW, chunks)
        bottleneck = n * 0.003
        serial = n * (0.001 + 0.0025 + xfer_time(16 * MiB) + 0.003)
        assert res.total_time < serial * 0.7
        assert res.total_time >= bottleneck
        assert res.total_time < bottleneck * 1.5

    def test_communication_overlaps_computation(self):
        chunks = make_chunks(30, t_comp=0.004)
        res = run_pipeline(HW, chunks)
        overlap = res.trace.overlap_time(STAGE_COMPUTE, STAGE_TRANSFER)
        assert overlap > 0.5 * res.trace.total_time(STAGE_TRANSFER)

    def test_addr_gen_overlaps_compute(self):
        chunks = make_chunks(30, t_ag=0.002, t_comp=0.004)
        res = run_pipeline(HW, chunks)
        assert res.trace.overlap_time(STAGE_ADDR_GEN, STAGE_COMPUTE) > 0

    def test_single_chunk_is_fully_serial(self):
        chunks = make_chunks(1)
        res = run_pipeline(HW, chunks)
        expected = 0.001 + 0.002 + xfer_time(2 * MiB) + xfer_time(4) + 0.003
        assert res.total_time == pytest.approx(expected, rel=0.05)

    def test_stage_totals_accumulate(self):
        n = 10
        res = run_pipeline(HW, make_chunks(n))
        assert res.stage_totals[STAGE_ADDR_GEN] == pytest.approx(n * 0.001)
        assert res.stage_totals[STAGE_ASSEMBLY] == pytest.approx(n * 0.002)
        assert res.stage_totals[STAGE_COMPUTE] == pytest.approx(n * 0.003)
        assert res.stage_totals[STAGE_TRANSFER] == pytest.approx(
            n * xfer_time(2 * MiB)
        )

    def test_bytes_accounted(self):
        n = 5
        res = run_pipeline(HW, make_chunks(n, xfer=1 * MiB, addr_bytes=64 * 1024))
        assert res.bytes_h2d >= n * 1 * MiB  # + flag bytes
        assert res.bytes_d2h == n * 64 * 1024


class TestRingDepth:
    def test_deeper_ring_never_slower(self):
        chunks = make_chunks(30, t_asm=0.004, t_comp=0.004)
        shallow = run_pipeline(HW, chunks, PipelineConfig(ring_depth=2))
        deep = run_pipeline(HW, chunks, PipelineConfig(ring_depth=6))
        assert deep.total_time <= shallow.total_time + 1e-9

    def test_ring_limits_lookahead(self):
        """addr_gen of chunk k cannot start before compute of chunk k-depth
        has finished (the paper's n-3 barrier generalized)."""
        depth = 2
        chunks = make_chunks(12, t_ag=0.0001, t_comp=0.01)
        res = run_pipeline(HW, chunks, PipelineConfig(ring_depth=depth))
        ag = {
            iv.meta["chunk"]: iv.start
            for iv in res.trace.by_label(STAGE_ADDR_GEN)
        }
        comp = {
            iv.meta["chunk"]: iv.end for iv in res.trace.by_label(STAGE_COMPUTE)
        }
        for k in range(depth, 12):
            assert ag[k] >= comp[k - depth] - 1e-12


class TestWritebackStages:
    def test_write_stages_present_when_writing(self):
        chunks = make_chunks(8, write_bytes=256 * 1024, t_scatter=0.001)
        res = run_pipeline(HW, chunks)
        assert res.stage_totals.get(STAGE_WRITEBACK_XFER, 0) > 0
        assert res.stage_totals.get(STAGE_WRITEBACK_SCATTER, 0) == pytest.approx(
            8 * 0.001
        )

    def test_write_stages_absent_otherwise(self):
        res = run_pipeline(HW, make_chunks(8))
        assert STAGE_WRITEBACK_XFER not in res.stage_totals
        assert STAGE_WRITEBACK_SCATTER not in res.stage_totals

    def test_writes_extend_pipeline_not_serially(self):
        base = run_pipeline(HW, make_chunks(30, t_comp=0.004))
        wb = run_pipeline(
            HW, make_chunks(30, t_comp=0.004, write_bytes=64 * 1024, t_scatter=0.0005)
        )
        # writeback overlaps the forward pipeline; cost is far less than
        # the serial sum of the extra stages
        assert wb.total_time < base.total_time + 30 * 0.0005


class TestAddressTraffic:
    def test_heavy_address_traffic_slows_pipeline(self):
        """8B/element address streams (no pattern) throttle the pipeline —
        the effect pattern recognition removes (Table II)."""
        light = run_pipeline(HW, make_chunks(20, addr_bytes=0))
        heavy = run_pipeline(HW, make_chunks(20, addr_bytes=64 * MiB))
        assert heavy.total_time > light.total_time * 1.5


class TestValidation:
    def test_empty_chunks_rejected(self):
        with pytest.raises(RuntimeConfigError):
            run_pipeline(HW, [])

    def test_negative_cost_rejected(self):
        with pytest.raises(RuntimeConfigError):
            ChunkWork(0, -1.0, 0, 0.0, 0, 0.0)

    def test_bad_config_rejected(self):
        with pytest.raises(RuntimeConfigError):
            PipelineConfig(ring_depth=1)
        with pytest.raises(RuntimeConfigError):
            PipelineConfig(cpu_workers=0)

    def test_stage_fraction(self):
        res = run_pipeline(HW, make_chunks(10))
        assert res.stage_fraction(STAGE_COMPUTE) == pytest.approx(1.0)
        assert 0 < res.stage_fraction(STAGE_ADDR_GEN) < 1.0


class TestStageTotals:
    """Each stage total is its intervals' durations added left to right in
    record order: the fast path's order, on every Python (``sum()`` over
    floats is compensated from 3.12 on)."""

    @staticmethod
    def assert_left_to_right(res):
        labels = {iv.label for iv in res.trace} - {f"{STAGE_TRANSFER}-flag"}
        assert set(res.stage_totals) == labels
        for label, total in res.stage_totals.items():
            durations = [iv.end - iv.start for iv in res.trace if iv.label == label]
            assert total == reduce(operator.add, durations, 0.0), label

    def test_pipeline(self):
        chunks = make_chunks(
            23, t_ag=1e-4, t_asm=3.3e-4, xfer=300_001, t_comp=2.7e-4,
            addr_bytes=4097, write_bytes=7001, t_scatter=1.1e-4,
        )
        self.assert_left_to_right(run_pipeline(HW, chunks, fastpath=False))

    def test_sharded(self):
        shards = [make_chunks(9, t_asm=3.3e-4, xfer=300_001), make_chunks(7)]
        res = run_pipeline_sharded(HW, shards, [PipelineConfig()] * 2)
        for shard in res.shards:
            self.assert_left_to_right(shard)
