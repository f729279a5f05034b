"""Tests for the GPU memory allocator and pinned-memory accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AllocationError, GpuOutOfMemory, PinnedMemoryExceeded
from repro.hw.gpu_memory import GpuMemoryAllocator
from repro.hw.pinned import PinnedAllocator


class TestGpuMemoryAllocator:
    def test_simple_alloc_free(self):
        a = GpuMemoryAllocator(1 << 20)
        x = a.alloc(1000, "x")
        assert a.used == x.nbytes >= 1000
        a.free(x)
        assert a.used == 0

    def test_alignment_rounding(self):
        a = GpuMemoryAllocator(1 << 20, alignment=256)
        x = a.alloc(1, "tiny")
        assert x.nbytes == 256

    def test_oom_raises(self):
        a = GpuMemoryAllocator(1024)
        a.alloc(512)
        with pytest.raises(GpuOutOfMemory):
            a.alloc(1024)

    def test_double_free_rejected(self):
        a = GpuMemoryAllocator(1 << 20)
        x = a.alloc(100)
        a.free(x)
        with pytest.raises(AllocationError):
            a.free(x)

    def test_holes_coalesce(self):
        a = GpuMemoryAllocator(1024, alignment=256)
        xs = [a.alloc(256) for _ in range(4)]
        for x in xs:
            a.free(x)
        # after freeing everything, one allocation of full size must succeed
        big = a.alloc(1024)
        assert big.nbytes == 1024

    def test_fragmentation_blocks_large_alloc(self):
        a = GpuMemoryAllocator(1024, alignment=256)
        xs = [a.alloc(256) for _ in range(4)]
        a.free(xs[0])
        a.free(xs[2])
        # 512 free but split into two 256 holes
        with pytest.raises(GpuOutOfMemory):
            a.alloc(512)

    def test_peak_usage_tracked(self):
        a = GpuMemoryAllocator(1 << 20, alignment=256)
        x = a.alloc(512)
        y = a.alloc(512)
        a.free(x)
        a.free(y)
        assert a.peak_usage == 1024

    def test_zero_size_rejected(self):
        a = GpuMemoryAllocator(1024)
        with pytest.raises(AllocationError):
            a.alloc(0)

    def test_reset(self):
        a = GpuMemoryAllocator(1024, alignment=256)
        a.alloc(512)
        a.reset()
        assert a.used == 0
        a.alloc(1024)  # full capacity available again

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=4096), min_size=1, max_size=40)
    )
    @settings(max_examples=40, deadline=None)
    def test_alloc_free_invariants(self, sizes):
        """used + holes == capacity, and freeing all restores full capacity."""
        a = GpuMemoryAllocator(1 << 20, alignment=256)
        allocs = []
        for i, s in enumerate(sizes):
            allocs.append(a.alloc(s, f"a{i}"))
            free_total = sum(sz for _, sz in a._free)
            assert a.used + free_total == a.capacity
        # regions must not overlap
        regions = sorted((al.offset, al.offset + al.nbytes) for al in allocs)
        for (s1, e1), (s2, e2) in zip(regions, regions[1:]):
            assert e1 <= s2
        for al in allocs:
            a.free(al)
        assert a.used == 0
        assert a._free == [(0, a.capacity)]


class TestPinnedAllocator:
    def test_limit_enforced(self):
        p = PinnedAllocator(1000)
        p.alloc(600)
        with pytest.raises(PinnedMemoryExceeded):
            p.alloc(500)

    def test_free_releases(self):
        p = PinnedAllocator(1000)
        b = p.alloc(800)
        p.free(b)
        p.alloc(900)

    def test_double_free_rejected(self):
        p = PinnedAllocator(1000)
        b = p.alloc(100)
        p.free(b)
        with pytest.raises(AllocationError):
            p.free(b)

    def test_peak_usage(self):
        p = PinnedAllocator(1000)
        b1 = p.alloc(400)
        p.alloc(400)
        p.free(b1)
        assert p.peak_usage == 800


#: one alloc/free sequence: (alloc?, size or which live buffer to free)
OPS = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=1, max_value=4096)), max_size=80
)


@given(ops=OPS)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_gpu_used_is_the_live_sum(ops):
    """The running total equals the sum over live allocations after every
    step, and the out-of-memory message reads what the sum reads."""
    a = GpuMemoryAllocator(24 * 1024, alignment=256)
    live, peak = [], 0
    for is_alloc, n in ops:
        if is_alloc or not live:
            total = sum(x.nbytes for x in a._live.values())
            try:
                live.append(a.alloc(n, "x"))
            except GpuOutOfMemory as err:
                need = (n + 255) // 256 * 256
                assert str(err) == (
                    f"cannot allocate {need} bytes ('x'): "
                    f"{a.capacity - total} free of {a.capacity}, fragmented into "
                    f"{len(a._free)} holes"
                )
        else:
            a.free(live.pop(n % len(live)))
        total = sum(x.nbytes for x in a._live.values())
        peak = max(peak, total)
        assert (a.used, a.available, a.peak_usage) == (total, a.capacity - total, peak)


@given(ops=OPS, deny=st.one_of(st.none(), st.integers(min_value=1, max_value=20000)))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_pinned_used_is_the_live_sum(ops, deny):
    """The running total equals the sum over live buffers after every
    step, and both refusals read what the sum reads."""
    p = PinnedAllocator(16 * 1024, deny_after_bytes=deny)
    live, peak = [], 0
    for is_alloc, n in ops:
        if is_alloc or not live:
            total = sum(b.nbytes for b in p._live.values())
            try:
                live.append(p.alloc(n, "x"))
            except PinnedMemoryExceeded as err:
                if total + n > p.limit:
                    assert str(err) == (
                        f"pinning {n} bytes ('x') would exceed the "
                        f"{p.limit}-byte limit ({p.limit - total} available)"
                    )
                else:
                    assert str(err) == (
                        f"pinning {n} bytes ('x') denied: injected fault "
                        f"caps pinned usage at {deny} bytes "
                        f"({total} already pinned)"
                    )
        else:
            p.free(live.pop(n % len(live)))
        total = sum(b.nbytes for b in p._live.values())
        peak = max(peak, total)
        assert (p.used, p.available, p.peak_usage) == (total, p.limit - total, peak)
