"""Tests for stride-pattern recognition (paper Section IV-A)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.pattern import (
    ADDRESS_BYTES,
    PATTERN_DESCRIPTOR_BYTES,
    OnlineAddressTracker,
    PatternRecognizer,
    StridePattern,
)


class TestStridePattern:
    def test_paper_example(self):
        """0x100, 0x105, 0x110, 0x115 -> base 0x100, stride 5."""
        p = StridePattern(0x100, (5,))
        np.testing.assert_array_equal(
            p.expand(4), [0x100, 0x105, 0x10A, 0x10F]
        )
        # note: the paper's example values (0x105 -> 0x110) are hex-rendered
        # decimals; a constant stride of 5 is what the text describes.

    def test_multi_stride_cycle(self):
        """K-means x/y/z reads: strides (8, 8, 32) over 48-byte records."""
        p = StridePattern(0, (8, 8, 32))
        np.testing.assert_array_equal(
            p.expand(7), [0, 8, 16, 48, 56, 64, 96]
        )

    def test_address_at_matches_expand(self):
        p = StridePattern(100, (3, 5))
        exp = p.expand(20)
        for i in range(20):
            assert p.address_at(i) == exp[i]

    def test_matches(self):
        p = StridePattern(0, (8,))
        assert p.matches(3, 24)
        assert not p.matches(3, 25)

    def test_empty_strides_rejected(self):
        with pytest.raises(ValueError):
            StridePattern(0, ())

    def test_expand_zero(self):
        assert StridePattern(5, (1,)).expand(0).size == 0

    @given(
        base=st.integers(0, 10**9),
        strides=st.lists(st.integers(1, 1000), min_size=1, max_size=4),
        n=st.integers(1, 200),
    )
    @settings(max_examples=50, deadline=None)
    def test_expand_consistency_property(self, base, strides, n):
        p = StridePattern(base, tuple(strides))
        exp = p.expand(n)
        assert exp[0] == base
        diffs = np.diff(exp)
        expected = np.tile(strides, -(-n // len(strides)))[: n - 1]
        np.testing.assert_array_equal(diffs, expected)


class TestPatternRecognizer:
    def test_recognizes_constant_stride(self):
        r = PatternRecognizer()
        p = r.recognize(list(range(0, 80, 8)))
        assert p == StridePattern(0, (8,))

    def test_recognizes_cycle(self):
        r = PatternRecognizer()
        addrs = StridePattern(64, (8, 8, 32)).expand(12)
        p = r.recognize(addrs)
        assert p is not None
        assert p.base == 64
        assert sum(p.strides) % 48 == 0  # cycle spans whole records

    def test_random_addresses_rejected(self):
        r = PatternRecognizer()
        rng = np.random.default_rng(0)
        assert r.recognize(rng.integers(0, 10**6, 16)) is None

    def test_too_few_samples(self):
        r = PatternRecognizer(min_samples=8)
        assert r.recognize([0, 8, 16]) is None

    def test_prefers_smallest_period(self):
        r = PatternRecognizer(max_period=4)
        p = r.recognize(list(range(0, 128, 8)))
        assert p is not None and p.period == 1

    @given(
        base=st.integers(0, 10**6),
        strides=st.lists(st.integers(1, 64), min_size=1, max_size=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_recognize_expand_roundtrip(self, base, strides):
        """recognize(expand(p)) reproduces the address stream."""
        p = StridePattern(base, tuple(strides))
        addrs = p.expand(16)
        found = PatternRecognizer(max_period=3).recognize(addrs)
        assert found is not None
        np.testing.assert_array_equal(found.expand(16), addrs)


class TestOnlineTracker:
    def test_pattern_path_compresses_to_descriptor(self):
        t = OnlineAddressTracker(temp_buffer=8)
        t.feed_many(range(0, 8000, 8))
        t.finish()
        assert t.has_pattern
        assert t.cpu_bytes() == PATTERN_DESCRIPTOR_BYTES
        np.testing.assert_array_equal(t.addresses(), np.arange(0, 8000, 8))

    def test_fallback_ships_raw_addresses(self):
        t = OnlineAddressTracker(temp_buffer=8)
        rng = np.random.default_rng(1)
        addrs = rng.integers(0, 10**6, 100)
        t.feed_many(addrs)
        t.finish()
        assert not t.has_pattern
        assert t.cpu_bytes() == 100 * ADDRESS_BYTES
        np.testing.assert_array_equal(t.addresses(), addrs)

    def test_midstream_violation_falls_back(self):
        """Pattern verified for a while, then broken: all addresses survive."""
        t = OnlineAddressTracker(temp_buffer=8)
        good = list(range(0, 400, 8))
        t.feed_many(good)
        t.feed(9999)  # breaks the stride
        t.feed_many([10007, 10015])
        t.finish()
        assert not t.has_pattern
        expected = good + [9999, 10007, 10015]
        np.testing.assert_array_equal(t.addresses(), expected)
        assert t.cpu_bytes() == len(expected) * ADDRESS_BYTES

    def test_short_stream_flushes_raw(self):
        t = OnlineAddressTracker(temp_buffer=16)
        t.feed_many([0, 8, 16])  # fewer than the temp buffer
        t.finish()
        np.testing.assert_array_equal(t.addresses(), [0, 8, 16])

    def test_wordcount_byte_stream_wins_big(self):
        """1-byte data, 8-byte addresses: the pattern saves ~8x traffic."""
        n = 4096
        t = OnlineAddressTracker(temp_buffer=8)
        t.feed_many(range(n))
        t.finish()
        assert t.has_pattern
        assert t.cpu_bytes() * 8 < n * ADDRESS_BYTES

    @given(
        seed=st.integers(0, 1000),
        n=st.integers(1, 300),
        patterned=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_tracker_never_loses_addresses(self, seed, n, patterned):
        """Whatever happens, the CPU can reproduce the exact stream."""
        rng = np.random.default_rng(seed)
        if patterned:
            addrs = np.arange(n, dtype=np.int64) * 24 + 7
        else:
            addrs = rng.integers(0, 10**7, n)
        t = OnlineAddressTracker(temp_buffer=8)
        t.feed_many(addrs)
        t.finish()
        np.testing.assert_array_equal(t.addresses(), addrs)


class TestFeedManyDifferential:
    """``feed_many`` checks a verified pattern a run at a time; the scalar
    ``feed`` loop stays the definition it must equal."""

    @staticmethod
    def snapshot(t):
        return (
            t.state,
            t.pattern,
            t.count,
            [int(a) for a in t.raw_emitted],
            [int(a) for a in t._buffer],
            t.cpu_bytes(),
        )

    @staticmethod
    def stream(rng, kind, longest):
        n = int(rng.integers(1, 700))
        period = int(rng.integers(1, longest + 1))
        cycle = rng.integers(-64, 65, period)
        base = int(rng.integers(0, 10**6))
        steps = np.tile(cycle, n // period + 1)[: n - 1]
        addrs = base + np.concatenate([[0], np.cumsum(steps)]).astype(np.int64)
        if kind == "perturbed":
            addrs[int(rng.integers(0, n))] += int(rng.integers(1, 9))
        elif kind == "random":
            addrs = rng.integers(0, 10**7, n)
        elif kind == "shifted":
            # the stride cycle, or just the base, changes mid-stream
            at = int(rng.integers(0, n))
            if rng.random() < 0.5:
                addrs[at:] += int(rng.integers(1, 4096))
            else:
                addrs[at:] = addrs[at] + np.arange(n - at) * int(rng.integers(1, 99))
        return addrs

    @pytest.mark.parametrize(
        "kind,seed", [("periodic", 1), ("perturbed", 2), ("random", 3), ("shifted", 4)]
    )
    def test_feed_many_equals_scalar_loop(self, kind, seed):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            temp = int(rng.choice([4, 8, 16, 128]))
            # cycles up to half the buffer (two periods fit), at most 64
            addrs = self.stream(rng, kind, min(temp // 2, 64))
            recognizer = PatternRecognizer(
                max_period=int(rng.choice([1, 4, 64])), min_samples=max(4, temp)
            )
            scalar = OnlineAddressTracker(recognizer, temp_buffer=temp)
            for a in addrs.tolist():
                scalar.feed(a)
            fed = self.snapshot(scalar)
            scalar.finish()
            finished = self.snapshot(scalar)
            cut = int(rng.integers(0, addrs.size + 1))
            # whole as an array, split in two as lists
            for pieces in ([addrs], [addrs[:cut].tolist(), addrs[cut:].tolist()]):
                batched = OnlineAddressTracker(recognizer, temp_buffer=temp)
                for piece in pieces:
                    batched.feed_many(piece)
                assert self.snapshot(batched) == fed
                batched.finish()
                assert self.snapshot(batched) == finished

    @pytest.mark.parametrize("cycle", [(8,), (8, 8, 32), (1,) * 45 + (19,)], ids=len)
    def test_feed_many_feeds_only_the_filling_address_and_the_miss(
        self, cycle, monkeypatch
    ):
        """Collection and verification run in bulk: ``feed`` sees the
        address that fills the buffer, and then only the first address the
        pattern does not predict (verification picks up mid-cycle, since
        128 is no multiple of these periods but the first)."""
        fed = []
        plain = OnlineAddressTracker.feed
        monkeypatch.setattr(
            OnlineAddressTracker, "feed", lambda t, a: fed.append(int(a)) or plain(t, a)
        )
        addrs = StridePattern(4096, cycle).expand(2048)
        recognizer = PatternRecognizer(max_period=64, min_samples=8)
        t = OnlineAddressTracker(recognizer, temp_buffer=128)
        t.feed_many(addrs)
        assert t.has_pattern and fed == [int(addrs[127])]
        broken = addrs.copy()
        broken[1500:] += 3
        fed.clear()
        t = OnlineAddressTracker(recognizer, temp_buffer=128)
        t.feed_many(broken)
        assert t.state == t.FALLBACK
        assert fed == [int(broken[127]), int(broken[1500])]
