"""Tests for the PCIe link / DMA engine model, including in-order delivery."""

import pytest

from repro.errors import DmaFaultError, HardwareError
from repro.faults import FaultInjector, FaultPlan
from repro.hw.pcie import D2H, H2D, DmaEngine, PcieLink, TransferRequest
from repro.hw.spec import PCIE_GEN3_X16
from repro.sim import Environment, Flag, TraceRecorder
from repro.units import MiB


def make_link(trace=None):
    env = Environment()
    return env, PcieLink(env, PCIE_GEN3_X16, trace=trace)


class TestPcieLink:
    def test_single_transfer_duration(self):
        env, link = make_link()
        done = link.transfer(TransferRequest(16 * MiB, H2D))
        env.run()
        assert env.now == pytest.approx(link.transfer_time(16 * MiB))

    def test_same_direction_serializes(self):
        env, link = make_link()
        link.transfer(TransferRequest(16 * MiB, H2D))
        link.transfer(TransferRequest(16 * MiB, H2D))
        env.run()
        assert env.now == pytest.approx(2 * link.transfer_time(16 * MiB))

    def test_opposite_directions_overlap(self):
        env, link = make_link()
        link.transfer(TransferRequest(16 * MiB, H2D))
        link.transfer(TransferRequest(16 * MiB, D2H))
        env.run()
        assert env.now == pytest.approx(link.transfer_time(16 * MiB))

    def test_byte_accounting(self):
        env, link = make_link()
        link.transfer(TransferRequest(1000, H2D))
        link.transfer(TransferRequest(500, D2H))
        env.run()
        assert link.bytes_moved[H2D] == 1000
        assert link.bytes_moved[D2H] == 500
        assert link.transfer_count == {H2D: 1, D2H: 1}

    def test_pageable_slower_than_pinned(self):
        env, link = make_link()
        assert link.transfer_time(16 * MiB, pinned=False) > link.transfer_time(
            16 * MiB, pinned=True
        )

    def test_trace_records_intervals(self):
        trace = TraceRecorder()
        env, link = make_link(trace)
        link.transfer(TransferRequest(1 * MiB, H2D, label="chunk0"))
        env.run()
        ivs = trace.by_track("pcie-h2d")
        assert len(ivs) == 1
        assert ivs[0].label == "chunk0"
        assert ivs[0].meta["nbytes"] == 1 * MiB

    def test_invalid_direction_rejected(self):
        with pytest.raises(HardwareError):
            TransferRequest(100, "sideways")


class TestDmaEngineOrdering:
    def test_flag_set_after_data_lands(self):
        """The trailing-flag trick: flag fires only after the data DMA."""
        env, link = make_link()
        dma = DmaEngine(link)
        flag = Flag(env)
        seen = []

        def consumer(env):
            yield flag.wait()
            seen.append(env.now)

        env.process(consumer(env))
        dma.copy_with_flag(16 * MiB, flag, H2D)
        env.run()
        data_t = link.transfer_time(16 * MiB)
        assert seen and seen[0] >= data_t

    def test_fifo_order_preserved(self):
        """Three queued transfers complete in submission order."""
        env, link = make_link()
        dma = DmaEngine(link)
        completions = []

        def track(env, ev, tag):
            yield ev
            completions.append(tag)

        e1 = dma.copy_async(8 * MiB, H2D, label="a")
        e2 = dma.copy_async(1, H2D, label="b")
        e3 = dma.copy_async(4 * MiB, H2D, label="c")
        for ev, tag in [(e1, "a"), (e2, "b"), (e3, "c")]:
            env.process(track(env, ev, tag))
        env.run()
        assert completions == ["a", "b", "c"]

    def test_flag_waits_behind_earlier_queue_entries(self):
        """A flag queued after two data DMAs waits for both (in-order)."""
        env, link = make_link()
        dma = DmaEngine(link)
        flag = Flag(env)
        dma.copy_async(16 * MiB, H2D)
        dma.copy_with_flag(16 * MiB, flag, H2D)
        t_flag = []

        def consumer(env):
            yield flag.wait()
            t_flag.append(env.now)

        env.process(consumer(env))
        env.run()
        assert t_flag[0] >= 2 * link.transfer_time(16 * MiB)


class TestTransferContract:
    """What one DMA puts on the heap, and how its completion is observed.

    ``env._eid`` counts heap pushes. A transfer pushes its start (URGENT),
    its channel grant, one timeout per attempt, and its completion, unless
    it is detached and nothing waits on it.
    """

    def test_copy_async_pushes_start_grant_timeout_completion(self):
        env, link = make_link()
        done = DmaEngine(link).copy_async(1 * MiB, H2D)
        assert env._eid == 1  # the start is pushed at once
        env.run()
        assert env._eid == 4
        assert done.processed and done.value.nbytes == 1 * MiB

    def test_copy_with_flag_pushes_no_completion(self):
        env, link = make_link()
        flag = Flag(env)
        seen = []

        def consumer(env):
            seen.append((yield flag.wait()))

        env.process(consumer(env))
        data = DmaEngine(link).copy_with_flag(1 * MiB, flag, H2D)
        env.run()
        # consumer: start, flag wake-up, completion. Data DMA: start,
        # grant, timeout. Flag DMA: start, grant (pushed when the data DMA
        # releases the channel), timeout. Neither DMA completion is pushed.
        assert env._eid == 9
        assert data.processed and data.value.label == "xfer"
        assert seen[0].label == "xfer-flag"

    def test_landing_releases_the_channel_before_setting_the_flag(self):
        env, link = make_link()
        dma = DmaEngine(link)
        flag = Flag(env)
        woke = []

        def consumer(env):
            yield flag.wait()
            woke.append(env._eid)

        env.process(consumer(env))
        dma.copy_with_flag(1 * MiB, flag, H2D)
        dma.copy_async(1 * MiB, H2D)  # queued behind the flag DMA
        env.run()
        # the flag DMA's landing pushes the queued DMA's grant (9), then
        # the consumer's wake-up (10); the grant pops first and pushes the
        # queued DMA's timeout (11) before the consumer runs
        assert woke == [11]

    def test_copy_async_joined_after_it_landed_continues_at_once(self):
        env, link = make_link()
        done = DmaEngine(link).copy_async(1 * MiB, H2D)
        env.run()
        landed, pushes = env.now, env._eid
        seen = []

        def joiner(env):
            seen.append((yield done))
            seen.append((yield env.all_of([done])))
            seen.append(env.now)

        env.process(joiner(env))
        env.run()
        assert seen == [done.value, {done: done.value}, landed]
        # the joiner's start, the all_of's success and the joiner's
        # completion: joining a landed DMA waits for nothing
        assert env._eid == pushes + 3

    def test_detached_copy_without_waiter_completes_without_a_push(self):
        env, link = make_link()
        req = TransferRequest(1 * MiB, H2D)
        done = link.transfer(req, detached=True)
        env.run()
        assert env._eid == 3  # start, grant, timeout
        assert done.processed and done.value is req

    def test_detached_copy_with_waiter_resumes_it_through_the_heap(self):
        env, link = make_link()
        done = link.transfer(TransferRequest(1 * MiB, H2D), detached=True)
        seen = []

        def joiner(env):
            seen.append(((yield done), env.now))

        env.process(joiner(env))
        env.run()
        assert seen == [(done.value, link.transfer_time(1 * MiB))]
        # transfer: start, grant, timeout, completion; joiner: start,
        # completion
        assert env._eid == 6

    def test_fatal_dma_error_raises_after_the_channel_is_released(self):
        env = Environment()
        plan = FaultPlan().dma.error(chunk=0, retries=99, stage="xfer")
        link = PcieLink(env, PCIE_GEN3_X16, faults=FaultInjector(plan))
        dma = DmaEngine(link)
        doomed = dma.copy_async(1 * MiB, H2D, chunk=0)
        queued = dma.copy_async(1 * MiB, H2D, chunk=1)
        with pytest.raises(DmaFaultError, match="failed permanently"):
            env.run()
        assert doomed.processed and not doomed.ok
        assert link.faults.fatal_dmas == 1
        # the channel went to the queued DMA before the error surfaced
        channel = link._channels[H2D]
        assert channel.count == 1 and channel.queue_length == 0
        env.run()
        assert queued.processed and queued.ok
        assert link.bytes_moved[H2D] == 1 * MiB
