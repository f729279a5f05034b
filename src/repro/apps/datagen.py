"""Shared synthetic data generation helpers."""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from repro.errors import ApplicationError

#: Version of the deterministic data-generation scheme. Part of every
#: content-based :func:`repro.apps.base.dataset_key`, so bump it whenever a
#: change to this module (or to any app's ``generate``) alters the bytes
#: produced for a given ``(app, seed, n_bytes)`` — stale persistent-cache
#: entries (``repro.bench.sweep.DiskCache``) are then keyed away instead of
#: silently reused. ``tests/test_datagen_golden.py`` pins the bytes of
#: every app per version.
DATAGEN_VERSION = 1

_WORD_CHARS = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", dtype=np.uint8)


def lemire_values(draws: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """What ``Generator.integers(0, r)`` makes of each 32-bit raw draw.

    NumPy maps a draw ``u`` to ``(u * r) >> 32`` and takes the next draw
    instead while ``(u * r) mod 2**32 < (2**32 - r) mod r`` (Lemire's
    method). Returns ``(values, accepted)`` per draw.
    """
    m = draws.astype(np.uint64) * np.uint64(r)
    accepted = (m & np.uint64(0xFFFFFFFF)) >= (2**32 - r) % r
    return (m >> np.uint64(32)).astype(np.intp), accepted


def parse_vocabulary(
    draws: np.ndarray, size: int, min_len: int, max_len: int
) -> Optional[tuple[np.ndarray, np.ndarray, int]]:
    """Replay :func:`make_vocabulary` on ``draws``, the next 32-bit raw
    draws of its generator's stream.

    Each word of the vocabulary is a length drawn by ``integers(min_len,
    max_len + 1)`` (which reads no draw when ``min_len == max_len``) and
    that many letters drawn by ``choice(letters, length)``, i.e.
    ``integers(0, 26, length)``; repeats are dropped. Returns ``(table,
    lengths, consumed)``: the ``size`` words as zero-padded rows of a
    ``(size, max_len)`` uint8 table, their lengths, and how many draws
    they read. Returns ``None`` if ``draws`` runs out first.
    """
    n = draws.size
    letters, letter_ok = lemire_values(draws, _WORD_CHARS.size)
    # stream position of every letter, and how many come before a position
    letter_at = np.flatnonzero(letter_ok)
    letters_before = np.concatenate(([0], np.cumsum(letter_ok)))
    if not letter_at.size:
        return None
    # for a word starting at each position 0..n: its length, the position
    # of its first letter, whether its length draw fits in the stream, and
    # the position after its last letter (n + 1 if it does not fit)
    position = np.arange(n + 1)
    if min_len == max_len:
        lengths, first, drawn = np.full(n + 1, min_len), position, True
    else:
        values, ok = lemire_values(draws, max_len - min_len + 1)
        length_at = np.where(np.append(ok, True), position, n)
        length_at = np.minimum.accumulate(length_at[::-1])[::-1]
        lengths = min_len + values[np.minimum(length_at, n - 1)]
        first = length_at + 1
        drawn = length_at < n
    first_letter = letters_before[np.minimum(first, n)]
    last_letter = first_letter + lengths - 1
    complete = drawn & (last_letter < letter_at.size)
    end = np.where(
        complete, letter_at[np.minimum(last_letter, letter_at.size - 1)] + 1, n + 1
    )

    # the words the loop draws: a chain of starts from position 0
    chain = end.tolist()
    starts = []
    p = 0
    while chain[p] <= n:
        starts.append(p)
        p = chain[p]
    if not starts:
        return None
    starts = np.array(starts)
    cols = np.arange(max_len)
    picks = first_letter[starts, None] + cols
    table = _WORD_CHARS[letters[letter_at[np.minimum(picks, letter_at.size - 1)]]]
    table[cols >= lengths[starts, None]] = 0

    # keep first occurrences until there are ``size`` of them
    rows = table.view(np.dtype((np.void, max_len))).ravel()
    new = np.zeros(starts.size, dtype=bool)
    new[np.unique(rows, return_index=True)[1]] = True
    kept = np.cumsum(new)
    if kept[-1] < size:
        return None
    stop = int(np.searchsorted(kept, size))
    keep = np.flatnonzero(new[: stop + 1])
    return table[keep], lengths[starts[keep]], int(end[starts[stop]])


def vocabulary_table(
    rng: np.random.Generator, size: int, min_len: int = 3, max_len: int = 12
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`make_vocabulary` as a zero-padded ``(size, max_len)`` uint8
    table and the word lengths, leaving ``rng`` in the same state.

    One block of raw 32-bit draws is parsed by :func:`parse_vocabulary`;
    ``rng`` is then rewound and advanced by exactly the draws the parse
    consumed. ``integers(0, 2**32, dtype=np.uint32)`` reads the same
    ``next_uint32`` stream as the bounded draws it replays, spare half of
    a 64-bit output included (``random_raw`` would skip that half).
    """
    if size < 1:
        raise ApplicationError("vocabulary size must be >= 1")
    if not 1 <= min_len <= max_len:
        raise ApplicationError(
            f"word lengths must satisfy 1 <= min_len <= max_len, "
            f"got {min_len}..{max_len}"
        )
    distinct = sum(_WORD_CHARS.size**n for n in range(min_len, max_len + 1))
    if size > distinct:
        raise ApplicationError(
            f"only {distinct} distinct words of length {min_len}..{max_len}; "
            f"asked for {size}"
        )
    state = rng.bit_generator.state
    # one length draw plus the mean word length per word, and 5% to spare
    n_draws = int(size * (1 + (min_len + max_len) / 2) * 1.05) + 64
    draws = rng.integers(0, 2**32, size=n_draws, dtype=np.uint32)
    while (parsed := parse_vocabulary(draws, size, min_len, max_len)) is None:
        more = rng.integers(0, 2**32, size=draws.size, dtype=np.uint32)
        draws = np.concatenate([draws, more])
    table, lengths, consumed = parsed
    rng.bit_generator.state = state
    rng.integers(0, 2**32, size=consumed, dtype=np.uint32)
    return table, lengths


def make_vocabulary(
    rng: np.random.Generator, size: int, min_len: int = 3, max_len: int = 12
) -> list[bytes]:
    """Random unique lowercase words, zipf-ready."""
    table, lengths = vocabulary_table(rng, size, min_len, max_len)
    return [row[:n].tobytes() for row, n in zip(table, lengths.tolist())]


#: buckets of the guide table :func:`zipf_indices` starts each search from
_GUIDE_BUCKETS = 2**16


@lru_cache(maxsize=8)
def _zipf_guide(vocab_size: int, s: float) -> tuple[np.ndarray, np.ndarray]:
    """The CDF ``rng.choice(p=...)`` searches, and for each bucket ``k`` of
    ``[0, 1)`` the first index whose CDF exceeds ``k / 2**16``."""
    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    probs = ranks**-s
    probs /= probs.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    edges = np.arange(_GUIDE_BUCKETS, dtype=np.float64) / _GUIDE_BUCKETS
    guide = np.searchsorted(cdf, edges, side="right").astype(np.int64)
    cdf.setflags(write=False)
    guide.setflags(write=False)
    return cdf, guide


def zipf_indices(rng: np.random.Generator, vocab_size: int, n: int, s: float = 1.2) -> np.ndarray:
    """Zipf-distributed indices into a vocabulary (word frequencies).

    Exactly ``rng.choice(vocab_size, size=n, p=probs)``: the same CDF and
    the same one ``rng.random(n)`` draw ``u``, without a binary search per
    draw. Each search starts at the guide entry of ``u``'s bucket, which
    never passes ``searchsorted(cdf, u, side="right")`` because the bucket
    starts at or below ``u``, and steps forward while ``cdf[idx] <= u``.
    """
    cdf, guide = _zipf_guide(vocab_size, float(s))
    u = rng.random(n)
    # u * 2**16 is exact, so the bucket is floor(u * 2**16)
    idx = guide.take((u * _GUIDE_BUCKETS).astype(np.intp))
    behind = np.flatnonzero(cdf.take(idx) <= u)
    while behind.size:
        idx[behind] += 1
        behind = behind[cdf.take(idx[behind]) <= u[behind]]
    return idx


def make_text(
    rng: np.random.Generator, n_bytes: int, vocab_size: int = 2000, sep: int = 32
) -> np.ndarray:
    """``sep``-separated zipf text of ~``n_bytes`` as a uint8 array.

    Always ends with a separator so every word is terminated. Each
    vocabulary word is a ``uint8`` row of its letters padded with
    separators to the longest length plus one; the text gathers the rows
    by word index and keeps each word's letters and one separator.
    """
    if n_bytes < 4:
        raise ApplicationError("text size must be >= 4 bytes")
    table, lengths = vocabulary_table(rng, vocab_size)
    avg = int(lengths.sum()) / vocab_size + 1
    n_words = max(1, int(n_bytes / avg))
    idx = zipf_indices(rng, vocab_size, n_words)
    sizes = (lengths + 1).astype(np.uint8)[idx]
    # words that end, separator included, within n_bytes
    fit = int(np.searchsorted(np.cumsum(sizes), n_bytes, side="right"))
    if fit == 0:
        raise ApplicationError(
            f"no word fits in {n_bytes} bytes of text; ask for more bytes"
        )
    width = table.shape[1] + 1
    rows = np.full((vocab_size, width), sep, dtype=np.uint8)
    rows[:, :-1] = np.where(table != 0, table, np.uint8(sep))
    keep = np.arange(width) <= lengths[:, None]
    # np.take gathers whole rows several times faster than fancy indexing
    words = idx[:fit]
    return np.take(rows, words, axis=0)[np.take(keep, words, axis=0)]


def dna_bases(rng: np.random.Generator, shape) -> np.ndarray:
    """Random A/C/G/T bytes."""
    return np.frombuffer(b"ACGT", dtype=np.uint8)[rng.integers(0, 4, shape)]
