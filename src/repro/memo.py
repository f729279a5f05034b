"""One bounded, thread-safe memo for every in-process cache.

Lookups and inserts hold one lock, a class attribute, so an object holding
a memo still pickles (the memo arrives empty). A computation runs outside
the lock; two threads that miss one key may both compute it and the later
insert wins, which is safe because every memoized value is a pure function
of its key. Keys must hash and compare without touching a memo.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from copy import deepcopy

#: name -> {"hits", "misses", "evictions"}, summed over the memos of a name
MEMO_STATS: dict = {}

_MISSING = object()


class Memo:
    """An LRU of at most ``maxsize`` entries, counted under ``name``."""

    _lock = threading.Lock()

    def __init__(self, name: str, maxsize: int):
        self.name = name
        self.maxsize = maxsize
        self._entries: OrderedDict = OrderedDict()
        self._stats = MEMO_STATS.setdefault(
            name, {"hits": 0, "misses": 0, "evictions": 0}
        )

    def get(self, key, default=None):
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self._stats["misses"] += 1
                return default
            self._entries.move_to_end(key)
            self._stats["hits"] += 1
            return value

    def put(self, key, value) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._stats["evictions"] += 1

    def get_or_compute(self, key, compute):
        """Memoizes ``compute()``'s value even when None, never an error."""
        value = self.get(key, _MISSING)
        if value is _MISSING:
            value = compute()
            self.put(key, value)
        return value

    def __contains__(self, key) -> bool:
        """A silent probe: no count, no LRU touch."""
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __reduce__(self):
        return Memo, (self.name, self.maxsize)

    def __deepcopy__(self, copies: dict) -> "Memo":
        # a deep copy keeps copies of the entries: a warmed owner stays warm
        clone = Memo(self.name, self.maxsize)
        with self._lock:
            entries = list(self._entries.items())
        clone._entries.update(deepcopy(entries, copies))
        return clone
