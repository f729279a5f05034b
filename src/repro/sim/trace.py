"""Timeline trace recording.

Every pipeline stage records the interval it occupied on its resource; the
figure harnesses (Fig. 2's pipeline picture, Fig. 6's stage-completion
breakdown) are computed from these intervals rather than from ad-hoc
counters, so what we report is what the simulated timeline actually did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional

_new = object.__new__
_set = object.__setattr__


@dataclass(frozen=True)
class Interval:
    """One occupancy interval on a named track."""

    track: str  # e.g. "gpu", "pcie", "cpu0"
    label: str  # e.g. "addr_gen", "data_xfer", "compute"
    start: float
    end: float
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlaps(self, other: "Interval") -> bool:
        """True if the two intervals share simulated time.

        Intervals are half-open ``[start, end)``: an interval ending at *t*
        does not overlap one starting at *t*. Zero-duration intervals
        (instant events such as flag writes) are treated as points — a
        point at *t* overlaps any interval whose half-open span contains
        *t*, and two points overlap only when they coincide. Without this
        rule an instant event could never overlap anything, so capacity
        checkers would silently ignore it.
        """
        if self.start == self.end and other.start == other.end:
            return self.start == other.start
        if self.start == self.end:
            return other.start <= self.start < other.end
        if other.start == other.end:
            return self.start <= other.start < self.end
        return self.start < other.end and other.start < self.end


class ReadOnlyMeta(dict):
    """An interval's ``meta`` that refuses edits. A memoized plan hands the
    intervals of its kept timeline to every replay of it
    (:meth:`repro.engines.base.Timeline.kept`), so no caller may change
    them under a later one. It is still a dict: reads, ``dict(meta)``,
    JSON and pickling see no difference."""

    __slots__ = ()

    def _refuse(self, *args: Any, **kwargs: Any) -> None:
        raise TypeError("a kept timeline's interval meta is read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return ReadOnlyMeta, (dict(self),)


class TraceRecorder:
    """Accumulates :class:`Interval` records during a simulated run."""

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        self._intervals: list[Interval] = list(intervals)

    def record(
        self,
        track: str,
        label: str,
        start: float,
        end: float,
        **meta: Any,
    ) -> Interval:
        """Append one interval; ``end`` must not precede ``start``."""
        if end < start:
            raise ValueError(f"interval ends before it starts: [{start}, {end}]")
        # Interval(track, label, start, end, meta) minus the frozen
        # dataclass's Python-level __init__ frame: the same
        # object.__setattr__ calls, so equality, hashing, immutability and
        # the compact instance layout are the dataclass's own
        iv = _new(Interval)
        _set(iv, "track", track)
        _set(iv, "label", label)
        _set(iv, "start", start)
        _set(iv, "end", end)
        _set(iv, "meta", meta)
        self._intervals.append(iv)
        return iv

    def __len__(self) -> int:
        return len(self._intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._intervals)

    @property
    def intervals(self) -> list[Interval]:
        return list(self._intervals)

    def by_label(self, label: str) -> list[Interval]:
        """All intervals with the given stage label."""
        return [iv for iv in self._intervals if iv.label == label]

    def by_track(self, track: str) -> list[Interval]:
        """All intervals on the given resource track."""
        return [iv for iv in self._intervals if iv.track == track]

    def labels(self) -> list[str]:
        """Distinct labels in first-seen order."""
        seen: dict[str, None] = {}
        for iv in self._intervals:
            seen.setdefault(iv.label, None)
        return list(seen)

    def total_time(self, label: Optional[str] = None) -> float:
        """Sum of durations, optionally restricted to one label, added left
        to right in record order (see :meth:`label_totals`)."""
        total = 0.0
        for iv in self._intervals:
            if label is None or iv.label == label:
                total += iv.end - iv.start
        return total

    def label_totals(self) -> dict[str, float]:
        """Every label's summed durations, in one pass, labels in
        first-seen order.

        Each total is added left to right in record order, the order the
        analytic fast path accumulates in, so the two agree exactly on
        every Python: ``sum()`` over floats is compensated from 3.12 on.
        """
        totals: dict[str, float] = {}
        for iv in self._intervals:
            totals[iv.label] = totals.get(iv.label, 0.0) + (iv.end - iv.start)
        return totals

    def busy_time(self, track: str) -> float:
        """Union length of intervals on ``track`` (overlaps merged)."""
        ivs = sorted(self.by_track(track), key=lambda iv: iv.start)
        busy = 0.0
        cur_start: Optional[float] = None
        cur_end = 0.0
        for iv in ivs:
            if cur_start is None:
                cur_start, cur_end = iv.start, iv.end
            elif iv.start <= cur_end:
                cur_end = max(cur_end, iv.end)
            else:
                busy += cur_end - cur_start
                cur_start, cur_end = iv.start, iv.end
        if cur_start is not None:
            busy += cur_end - cur_start
        return busy

    def makespan(self) -> float:
        """End of the last interval minus start of the first."""
        if not self._intervals:
            return 0.0
        return max(iv.end for iv in self._intervals) - min(
            iv.start for iv in self._intervals
        )

    @staticmethod
    def _chrome_row(iv: "Interval") -> str:
        """Visual row (thread) of an interval: retried DMA attempts get a
        dedicated ``<track>:retry`` row so failed attempts are visually
        distinguishable from the successful transfer on the main track."""
        if iv.meta.get("retry") or iv.label.endswith("-retry"):
            return f"{iv.track}:retry"
        return iv.track

    def to_chrome_trace(self) -> list[dict]:
        """Render the timeline as Chrome ``chrome://tracing`` events.

        Each track becomes a thread; each interval a complete ("X") event
        with microsecond timestamps. Retried DMA attempts are placed on a
        dedicated ``<track>:retry`` thread and tagged ``cat: "retry"``.
        Load the JSON dump in a trace viewer (Perfetto, chrome://tracing)
        to inspect the pipeline visually.
        """
        rows = {
            r: i
            for i, r in enumerate(dict.fromkeys(self._chrome_row(iv) for iv in self))
        }
        events: list[dict] = [
            {
                "name": row,
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "cat": "meta",
                "args": {"name": row},
            }
            for row, tid in rows.items()
        ]
        for iv in self._intervals:
            row = self._chrome_row(iv)
            event = {
                "name": iv.label,
                "ph": "X",
                "pid": 0,
                "tid": rows[row],
                "ts": iv.start * 1e6,
                "dur": iv.duration * 1e6,
                "args": dict(iv.meta),
            }
            if row.endswith(":retry"):
                event["cat"] = "retry"
            events.append(event)
        return events

    def dump_chrome_trace(self, path: str) -> None:
        """Write the Chrome-trace JSON to ``path``."""
        import json

        with open(path, "w") as fh:
            json.dump({"traceEvents": self.to_chrome_trace()}, fh, default=str)

    def overlap_time(self, label_a: str, label_b: str) -> float:
        """Total simulated time during which both labels were active.

        Used to *verify* that the pipeline actually overlaps communication
        with computation rather than assuming it.
        """
        total = 0.0
        for a in self.by_label(label_a):
            for b in self.by_label(label_b):
                lo = max(a.start, b.start)
                hi = min(a.end, b.end)
                if hi > lo:
                    total += hi - lo
        return total
