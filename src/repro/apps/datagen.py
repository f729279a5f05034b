"""Shared synthetic data generation helpers."""

from __future__ import annotations

import numpy as np

from repro.errors import ApplicationError

#: Version of the deterministic data-generation scheme. Part of every
#: content-based :func:`repro.apps.base.dataset_key`, so bump it whenever a
#: change to this module (or to any app's ``generate``) alters the bytes
#: produced for a given ``(app, seed, n_bytes)`` — stale persistent-cache
#: entries (``repro.bench.sweep.DiskCache``) are then keyed away instead of
#: silently reused.
DATAGEN_VERSION = 1

_WORD_CHARS = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", dtype=np.uint8)


def make_vocabulary(
    rng: np.random.Generator, size: int, min_len: int = 3, max_len: int = 12
) -> list[bytes]:
    """Random lowercase words, unique-ish, zipf-ready."""
    if size < 1:
        raise ApplicationError("vocabulary size must be >= 1")
    vocab = []
    seen = set()
    while len(vocab) < size:
        ln = int(rng.integers(min_len, max_len + 1))
        w = bytes(rng.choice(_WORD_CHARS, ln))
        if w not in seen:
            seen.add(w)
            vocab.append(w)
    return vocab


def zipf_indices(rng: np.random.Generator, vocab_size: int, n: int, s: float = 1.2) -> np.ndarray:
    """Zipf-distributed indices into a vocabulary (word frequencies)."""
    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    probs = ranks**-s
    probs /= probs.sum()
    return rng.choice(vocab_size, size=n, p=probs)


def make_text(
    rng: np.random.Generator, n_bytes: int, vocab_size: int = 2000, sep: int = 32
) -> np.ndarray:
    """Space-separated zipf text of ~``n_bytes`` as a uint8 array.

    Always ends with a separator so every word is terminated.
    """
    if n_bytes < 4:
        raise ApplicationError("text size must be >= 4 bytes")
    vocab = make_vocabulary(rng, vocab_size)
    avg = sum(len(w) for w in vocab) / len(vocab) + 1
    n_words = max(1, int(n_bytes / avg))
    idx = zipf_indices(rng, vocab_size, n_words)
    pieces = b" ".join(vocab[i] for i in idx) + b" "
    out = np.frombuffer(pieces, dtype=np.uint8)
    if out.size > n_bytes:
        # trim at the last separator before the limit
        seps = np.flatnonzero(out[:n_bytes] == sep)
        if seps.size == 0:
            raise ApplicationError(
                f"no word fits in {n_bytes} bytes of text; ask for more bytes"
            )
        out = out[: int(seps[-1]) + 1]
    return np.ascontiguousarray(out)


def dna_bases(rng: np.random.Generator, shape) -> np.ndarray:
    """Random A/C/G/T bytes."""
    return np.frombuffer(b"ACGT", dtype=np.uint8)[rng.integers(0, 4, shape)]
