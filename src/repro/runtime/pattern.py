"""Online stride-pattern recognition (paper Section IV-A).

Each address-generation thread first collects a handful of addresses in a
small private temp buffer, tries to extract a ``[base, strides...]`` pattern
from them, then *verifies* every subsequently generated address against the
pattern. On success only the tiny descriptor crosses to the CPU instead of
one 4/8-byte address per accessed element — the optimization behind
Table II's results (66% for Word Count, where addresses would otherwise
outweigh the 1-byte data eight-fold).

A pattern is a base address plus a repeating cycle of strides:
``0x100, 0x105, 0x110, 0x115`` -> base ``0x100``, strides ``(5,)``;
K-means' per-record ``x,y,z`` reads give strides ``(8, 8, 32)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

#: size of one raw address sent to the CPU (64-bit)
ADDRESS_BYTES = 8
#: serialized pattern descriptor: base + count + stride-cycle length + up to
#: a few strides (generous fixed bound)
PATTERN_DESCRIPTOR_BYTES = 64


@dataclass(frozen=True)
class StridePattern:
    """``addresses[i] = base + sum of the first i strides (cycled)``."""

    base: int
    strides: tuple[int, ...]

    def __post_init__(self):
        if not self.strides:
            raise ValueError("a pattern needs at least one stride")

    @property
    def period(self) -> int:
        return len(self.strides)

    @property
    def cycle_span(self) -> int:
        """Bytes advanced per full stride cycle."""
        return int(sum(self.strides))

    def expand(self, n: int) -> np.ndarray:
        """Reproduce the first ``n`` addresses (what the CPU does)."""
        if n < 0:
            raise ValueError("n must be non-negative")
        if n == 0:
            return np.empty(0, dtype=np.int64)
        out = np.empty(n, dtype=np.int64)
        out[0] = self.base
        if n > 1:
            reps = -(-(n - 1) // self.period)  # ceil
            cycle = np.asarray(self.strides, dtype=np.int64)
            diffs = np.tile(cycle, reps)[: n - 1]
            np.cumsum(diffs, out=out[1:])
            out[1:] += self.base
        return out

    def address_at(self, i: int) -> int:
        """The i-th address under the pattern."""
        if i < 0:
            raise ValueError("index must be non-negative")
        full, rem = divmod(i, self.period)
        return self.base + full * self.cycle_span + int(sum(self.strides[:rem]))

    def matches(self, i: int, address: int) -> bool:
        """Online verification of one generated address."""
        return self.address_at(i) == int(address)


class PatternRecognizer:
    """Extracts a stride pattern from a temp buffer of addresses."""

    def __init__(self, max_period: int = 4, min_samples: int = 8):
        if max_period < 1:
            raise ValueError("max_period must be >= 1")
        if min_samples < 4:
            raise ValueError("min_samples must be >= 4")
        self.max_period = max_period
        self.min_samples = min_samples

    def recognize(self, addresses: Sequence[int]) -> Optional[StridePattern]:
        """Smallest-period stride cycle explaining all samples, or None.

        Requires at least ``min_samples`` addresses and at least two full
        cycles of evidence for the candidate period. Every period of the
        strides is at least their smallest one, so the smallest period
        passes both bounds or no period does.
        """
        addrs = np.asarray(addresses, dtype=np.int64)
        if addrs.size < self.min_samples:
            return None
        diffs = (addrs[1:] - addrs[:-1]).tolist()
        period = smallest_period(diffs)
        if period > self.max_period or 2 * period > len(diffs):
            return None
        return StridePattern(int(addrs[0]), tuple(diffs[:period]))


def smallest_period(seq: Sequence) -> int:
    """Smallest ``p >= 1`` with ``seq[i] == seq[i + p]`` wherever both
    exist (``len(seq)`` when nothing shorter repeats), by one pass of the
    prefix function: ``p = n - border``, where ``border`` is the length of
    the longest proper prefix of ``seq`` that is also its suffix."""
    border = [0]
    k = 0
    for x in seq[1:]:
        while seq[k] != x:
            if not k:
                break
            k = border[k - 1]
        else:
            k += 1
        border.append(k)
    return max(len(seq) - k, 1)


class OnlineAddressTracker:
    """Per-thread online state machine from Section IV-A.

    Feed generated addresses one at a time. The tracker mirrors the GPU-side
    behaviour: collect a temp buffer, attempt recognition, then verify; on
    any mismatch fall back to raw address emission for the rest of the
    stream ("address generation is started again ... without attempting to
    identify a pattern"). ``cpu_bytes`` reports what crossed to CPU memory.
    """

    COLLECTING = "collecting"
    VERIFYING = "verifying"
    FALLBACK = "fallback"

    def __init__(self, recognizer: Optional[PatternRecognizer] = None, temp_buffer: int = 8):
        self.recognizer = recognizer or PatternRecognizer(min_samples=max(4, temp_buffer))
        self.temp_buffer = temp_buffer
        self.state = self.COLLECTING
        self.pattern: Optional[StridePattern] = None
        self._buffer: list[int] = []
        self._count = 0
        self.raw_emitted: list[int] = []

    @property
    def count(self) -> int:
        """Addresses generated so far."""
        return self._count

    def feed(self, address: int) -> None:
        address = int(address)
        if self.state == self.COLLECTING:
            self._buffer.append(address)
            self._count += 1
            if len(self._buffer) >= self.temp_buffer:
                pat = self.recognizer.recognize(self._buffer)
                if pat is not None:
                    self.pattern = pat
                    self.state = self.VERIFYING
                else:
                    self._fall_back()
        elif self.state == self.VERIFYING:
            assert self.pattern is not None
            if self.pattern.matches(self._count, address):
                self._count += 1
            else:
                # Restart without pattern matching: all addresses so far
                # (reproducible from the failed pattern) plus this one go raw.
                self._buffer = list(self.pattern.expand(self._count)) + [address]
                self._count += 1
                self._fall_back()
        else:  # FALLBACK
            self.raw_emitted.append(address)
            self._count += 1

    def feed_many(self, addresses: Iterable[int]) -> None:
        """:meth:`feed` every address in turn, a run at a time.

        Collection copies addresses into the temp buffer in bulk, up to one
        short of full. While a pattern is verified, the run of addresses
        that matches it is found with array compares of its steps against
        the stride cycle; in fallback the rest is appended raw. Only the
        address that fills the buffer and the first mismatch go through
        :meth:`feed`, which stays the definition.
        """
        if not isinstance(addresses, np.ndarray):
            addresses = list(addresses)
        addrs = np.asarray(addresses, dtype=np.int64)
        i, n = 0, addrs.size
        while i < n:
            if self.state == self.COLLECTING:
                run = min(self.temp_buffer - 1 - len(self._buffer), n - i)
                if run > 0:
                    self._buffer.extend(addrs[i : i + run].tolist())
                    self._count += run
                    i += run
                    continue
            elif self.state == self.VERIFYING:
                run = self._verified_run(addrs[i:])
                self._count += run
                i += run
                if i == n:
                    break
            else:  # FALLBACK
                self.raw_emitted.extend(addrs[i:].tolist())
                self._count += n - i
                break
            self.feed(addrs[i])
            i += 1

    def _verified_run(self, addrs: np.ndarray) -> int:
        """How many of ``addrs``, the stream's next addresses, the verified
        pattern predicts before its first miss.

        The first must be the pattern's next address. Each step after it
        must be the cycle's next stride: the rotated cycle for one period,
        then the step one period back.
        """
        pat = self.pattern
        assert pat is not None
        if int(addrs[0]) != pat.address_at(self._count):
            return 0
        period = pat.period
        r = self._count % period
        steps = addrs[1:] - addrs[:-1]
        cycle = (pat.strides[r:] + pat.strides[:r])[: steps.size]
        bad = np.flatnonzero(steps[:period] != np.asarray(cycle, dtype=np.int64))
        if bad.size == 0:
            bad = np.flatnonzero(steps[period:] != steps[:-period]) + period
        return addrs.size if bad.size == 0 else int(bad[0]) + 1

    def finish(self) -> None:
        """End of stream: a still-collecting buffer is flushed raw, a
        verified pattern stays a pattern."""
        if self.state == self.COLLECTING:
            pat = self.recognizer.recognize(self._buffer)
            if pat is not None and len(self._buffer) >= self.recognizer.min_samples:
                self.pattern = pat
                self.state = self.VERIFYING
            else:
                self._fall_back()

    def _fall_back(self) -> None:
        self.raw_emitted.extend(self._buffer)
        self._buffer = []
        self.pattern = None
        self.state = self.FALLBACK

    # -- results ---------------------------------------------------------
    @property
    def has_pattern(self) -> bool:
        return self.state == self.VERIFYING and self.pattern is not None

    def addresses(self) -> np.ndarray:
        """The full reproduced address stream (CPU side)."""
        if self.has_pattern:
            assert self.pattern is not None
            return self.pattern.expand(self._count)
        return np.asarray(self.raw_emitted + self._buffer, dtype=np.int64)

    def cpu_bytes(self) -> int:
        """Bytes shipped to CPU memory for this thread's stream."""
        if self.has_pattern:
            return PATTERN_DESCRIPTOR_BYTES
        return len(self.raw_emitted + self._buffer) * ADDRESS_BYTES


class AdaptiveAddressTracker:
    """Extension from Section IV-A's closing remark: patterns may *change
    midstream*.

    Where :class:`OnlineAddressTracker` abandons pattern mode forever on the
    first mismatch, this tracker closes the current pattern segment and
    starts recognizing a new one, shipping one descriptor per segment. Only
    when the stream fragments into more than ``max_segments`` pieces does it
    fall back to raw addresses — bounding the descriptor overhead the same
    way the original bounds temp-buffer memory.
    """

    def __init__(
        self,
        recognizer: Optional[PatternRecognizer] = None,
        temp_buffer: int = 8,
        max_segments: int = 8,
    ):
        if max_segments < 1:
            raise ValueError("max_segments must be >= 1")
        self.recognizer = recognizer or PatternRecognizer(min_samples=max(4, temp_buffer))
        self.temp_buffer = temp_buffer
        self.max_segments = max_segments
        #: closed (pattern, count) segments, in stream order
        self.segments: list[tuple[StridePattern, int]] = []
        self._buffer: list[int] = []
        self._current: Optional[StridePattern] = None
        self._current_count = 0
        self.raw_emitted: list[int] = []
        self._raw_mode = False

    @property
    def fell_back(self) -> bool:
        """True once the stream fragmented past ``max_segments``."""
        return self._raw_mode

    def feed(self, address: int) -> None:
        address = int(address)
        if self._raw_mode:
            self.raw_emitted.append(address)
            return
        if self._current is not None:
            if self._current.matches(self._current_count, address):
                self._current_count += 1
                return
            # pattern changed midstream: close the segment, start anew
            self._close_segment()
            if len(self.segments) >= self.max_segments:
                self._go_raw([address])
                return
        self._buffer.append(address)
        if len(self._buffer) >= self.temp_buffer:
            pat = self.recognizer.recognize(self._buffer)
            if pat is not None:
                self._current = pat
                self._current_count = len(self._buffer)
                self._buffer = []
            else:
                self._go_raw([])

    def feed_many(self, addresses) -> None:
        for a in addresses:
            self.feed(a)

    def finish(self) -> None:
        """Close out the stream (flush any open segment / buffer)."""
        if self._raw_mode:
            return
        if self._current is not None:
            self._close_segment()
        if self._buffer:
            pat = self.recognizer.recognize(self._buffer)
            if pat is not None and len(self.segments) < self.max_segments:
                self.segments.append((pat, len(self._buffer)))
                self._buffer = []
            else:
                self._go_raw([])

    def _close_segment(self) -> None:
        assert self._current is not None
        self.segments.append((self._current, self._current_count))
        self._current = None
        self._current_count = 0

    def _go_raw(self, extra: list[int]) -> None:
        """Abandon segmentation: replay everything as raw addresses."""
        self._raw_mode = True
        replay: list[int] = []
        for pat, count in self.segments:
            replay.extend(pat.expand(count).tolist())
        self.segments = []
        replay.extend(self._buffer)
        self._buffer = []
        replay.extend(extra)
        self.raw_emitted = replay

    # -- results ----------------------------------------------------------
    def addresses(self) -> np.ndarray:
        """The full reproduced address stream (CPU side)."""
        if self._raw_mode:
            return np.asarray(self.raw_emitted, dtype=np.int64)
        parts = [pat.expand(count) for pat, count in self.segments]
        if self._current is not None:
            parts.append(self._current.expand(self._current_count))
        if self._buffer:
            parts.append(np.asarray(self._buffer, dtype=np.int64))
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    def cpu_bytes(self) -> int:
        """Bytes shipped to CPU memory for this thread's stream."""
        if self._raw_mode:
            return len(self.raw_emitted) * ADDRESS_BYTES
        n_desc = len(self.segments) + (1 if self._current is not None else 0)
        return n_desc * PATTERN_DESCRIPTOR_BYTES + len(self._buffer) * ADDRESS_BYTES
