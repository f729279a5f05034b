"""Exactness of the vectorized dataset generators against the loops they
replaced.

``make_vocabulary`` replays its generator's stream from one block of raw
32-bit draws, ``zipf_indices`` replays ``rng.choice(p=...)`` through a guide
table over its CDF, ``make_text`` gathers its words from a table,
Mastercard renders its records with array writes, and DNA gathers its
reads through a window view of the genome; the last four work in blocks
of ``BLOCK`` items. The loops and calls below are the previous
implementations, kept as oracles: outputs, and the generator's state
afterwards (which every later draw depends on), must match exactly, also
at and across block edges.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.apps import datagen
from repro.apps.base import get_app
from repro.apps.datagen import (
    _WORD_CHARS,
    BLOCK,
    dna_bases,
    make_text,
    make_vocabulary,
    parse_vocabulary,
    zipf_indices,
)
from repro.apps.dna import FRAG_LEN, FRAGMENT
from repro.apps.mastercard import N_CARDS, N_MERCHANTS, _render_transactions
from repro.errors import ApplicationError

KiB = 1024
MiB = 1024 * KiB


# ------------------------------------------------------------------ oracles
def loop_vocabulary(rng, size, min_len=3, max_len=12):
    vocab = []
    seen = set()
    while len(vocab) < size:
        ln = int(rng.integers(min_len, max_len + 1))
        w = bytes(rng.choice(_WORD_CHARS, ln))
        if w not in seen:
            seen.add(w)
            vocab.append(w)
    return vocab


def choice_zipf(rng, vocab_size, n, s=1.2):
    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    probs = ranks**-s
    probs /= probs.sum()
    return rng.choice(vocab_size, size=n, p=probs)


def join_text(rng, n_bytes, vocab_size=2000, sep=32):
    if n_bytes < 4:
        raise ApplicationError("text size must be >= 4 bytes")
    vocab = loop_vocabulary(rng, vocab_size)
    avg = sum(len(w) for w in vocab) / len(vocab) + 1
    n_words = max(1, int(n_bytes / avg))
    idx = choice_zipf(rng, vocab_size, n_words)
    pieces = b" ".join(vocab[i] for i in idx) + b" "
    out = np.frombuffer(pieces, dtype=np.uint8)
    if out.size > n_bytes:
        seps = np.flatnonzero(out[:n_bytes] == sep)
        if seps.size == 0:
            raise ApplicationError(
                f"no word fits in {n_bytes} bytes of text; ask for more bytes"
            )
        out = out[: int(seps[-1]) + 1]
    return np.ascontiguousarray(out)


def index_matrix_fragments(n, seed, genome_fraction):
    """DNA's fragment records, gathered through an n x 46 index matrix
    into the genome and copied one base field at a time."""
    rng = np.random.default_rng(seed)
    genome_len = max(FRAG_LEN + 1, int(n * genome_fraction) + FRAG_LEN)
    genome = dna_bases(rng, genome_len)
    starts = rng.integers(0, genome_len - FRAG_LEN, n)
    idx = starts[:, None] + np.arange(FRAG_LEN)[None, :]
    frags = genome[idx]
    arr = np.zeros(n, dtype=FRAGMENT.numpy_dtype())
    for j in range(FRAG_LEN):
        arr[f"b{j}"] = frags[:, j]
    arr["read_id"] = np.arange(n)
    arr["quality"] = rng.uniform(0.5, 1.0, n).astype(np.float32)
    return arr


def loop_render(rng, cards, merchants):
    tails = rng.integers(28, 62, cards.size)
    pieces = []
    for c, m, t in zip(cards.tolist(), merchants.tolist(), tails.tolist()):
        pieces.append(b"%08d|%08d|%s;" % (c, m, b"9" * t))
    text = np.frombuffer(b"".join(pieces), dtype=np.uint8)
    lens = np.array([len(p) for p in pieces], dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    return text, starts


def model_integers(stream, lo, hi):
    """NumPy's ``Generator.integers(lo, hi)`` on an iterator of 32-bit words.

    A range of one value reads no word; otherwise Lemire's method maps a
    word ``u`` to ``(u * r) >> 32`` and redraws while the low 32 bits of
    ``u * r`` are below ``(2**32 - r) % r``.
    """
    r = hi - lo
    if r == 1:
        return lo
    m = next(stream) * r
    if m % 2**32 < r:
        threshold = (2**32 - r) % r
        while m % 2**32 < threshold:
            m = next(stream) * r
    return lo + (m >> 32)


def model_vocabulary(words, size, min_len, max_len):
    """The old loop on a list of stream words: (vocabulary, words read)."""
    stream = iter(words)
    read = 0

    def counted():
        nonlocal read
        for u in stream:
            read += 1
            yield u

    draws = counted()
    vocab = []
    seen = set()
    while len(vocab) < size:
        ln = model_integers(draws, min_len, max_len + 1)
        w = bytes(_WORD_CHARS[model_integers(draws, 0, 26)] for _ in range(ln))
        if w not in seen:
            seen.add(w)
            vocab.append(w)
    return vocab, read


def rejected(r):
    """32-bit words ``integers(0, r)`` rejects: ``u * r`` has low bits
    below the threshold (``u = 0``, and the smallest ``u`` of a value)."""
    threshold = (2**32 - r) % r
    words = [0] + [-(-(k << 32) // r) for k in range(1, r)]
    return [u for u in words if (u * r) % 2**32 < threshold]


def words_of(parsed):
    table, lengths, consumed = parsed
    return [row[:n].tobytes() for row, n in zip(table, lengths.tolist())], consumed


def state_of(rng):
    return rng.bit_generator.state


# -------------------------------------------------------------- vocabulary
class TestVocabularyReplay:
    @pytest.mark.parametrize(
        "size,seeds",
        [(1, range(40)), (50, range(40)), (500, range(20)), (2000, range(6))],
    )
    def test_words_and_state_match_loop(self, size, seeds):
        for seed in seeds:
            old, new = np.random.default_rng(seed), np.random.default_rng(seed)
            assert make_vocabulary(new, size) == loop_vocabulary(old, size), seed
            assert state_of(new) == state_of(old), seed

    @pytest.mark.parametrize("size,length", [(26, 1), (100, 2), (300, 3), (40, 12)])
    def test_fixed_length_draws_no_length_word(self, size, length):
        for seed in range(10):
            old, new = np.random.default_rng(seed), np.random.default_rng(seed)
            expect = loop_vocabulary(old, size, length, length)
            assert make_vocabulary(new, size, length, length) == expect
            assert state_of(new) == state_of(old)

    @pytest.mark.parametrize("min_len,max_len", [(1, 2), (2, 9), (4, 4), (5, 20)])
    def test_other_length_ranges(self, min_len, max_len):
        for seed in range(10):
            old, new = np.random.default_rng(seed), np.random.default_rng(seed)
            expect = loop_vocabulary(old, 60, min_len, max_len)
            assert make_vocabulary(new, 60, min_len, max_len) == expect
            assert state_of(new) == state_of(old)

    def test_later_draws_line_up(self):
        old, new = np.random.default_rng(3), np.random.default_rng(3)
        loop_vocabulary(old, 2000)
        make_vocabulary(new, 2000)
        assert np.array_equal(new.random(5), old.random(5))
        assert np.array_equal(new.integers(0, 7, 9), old.integers(0, 7, 9))


class TestParseRejections:
    """The parse must follow NumPy when Lemire's method rejects a word.

    No seed in use hits a rejection (about 1e-9 per draw), so the streams
    are crafted: rejected words are planted before length and letter
    draws, and the parse is compared with a pure-Python model of NumPy.
    """

    def test_model_matches_numpy(self):
        for seed in range(5):
            raw = np.random.default_rng(seed)
            words = raw.integers(0, 2**32, size=20_000, dtype=np.uint32).tolist()
            rng = np.random.default_rng(seed)
            vocab = loop_vocabulary(rng, 1000)
            expect, read = model_vocabulary(words, 1000, 3, 12)
            assert vocab == expect
            rest = np.random.default_rng(seed)
            rest.integers(0, 2**32, size=read, dtype=np.uint32)
            assert state_of(rest) == state_of(rng)

    @staticmethod
    def crafted(seed, n_words, min_len, max_len, length_rejects, letter_rejects):
        """Stream words for ``n_words`` words with rejected words planted
        before every length draw and/or every third letter draw.

        Returns the words and the positions of the planted ones.
        """
        source = np.random.default_rng(seed)
        r = max_len - min_len + 1

        def accepted(r):
            while True:
                u = int(source.integers(0, 2**32, dtype=np.uint32))
                if (u * r) % 2**32 >= (2**32 - r) % r:
                    return u

        length_bad, letter_bad = rejected(r) if r > 1 else [], rejected(26)
        out, planted = [], []
        for i in range(n_words):
            ln = min_len
            if r > 1:
                if length_rejects:
                    planted.append(len(out))
                    out.append(length_bad[i % len(length_bad)])
                u = accepted(r)
                out.append(u)
                ln += (u * r) >> 32
            for j in range(ln):
                if letter_rejects and j % 3 == 0:
                    planted.append(len(out))
                    out.append(letter_bad[(i + j) % len(letter_bad)])
                out.append(accepted(26))
        return out, planted

    @pytest.mark.parametrize(
        "min_len,max_len,length_rejects,letter_rejects",
        [
            (3, 12, True, False),
            (3, 12, False, True),
            (3, 12, True, True),
            (2, 2, False, True),
            (1, 3, True, True),
        ],
    )
    def test_rejected_words_skipped_like_numpy(
        self, min_len, max_len, length_rejects, letter_rejects
    ):
        size = 150
        for seed in range(4):
            words, planted = self.crafted(
                seed, 400, min_len, max_len, length_rejects, letter_rejects
            )
            expect, read = model_vocabulary(words, size, min_len, max_len)
            assert sum(p < read for p in planted) >= size
            parsed = parse_vocabulary(
                np.array(words, dtype=np.uint32), size, min_len, max_len
            )
            assert words_of(parsed) == (expect, read)

    def test_planted_words_are_rejected(self):
        # 0 and some nonzero words, for a length range and for the letters
        for r in (10, 26):
            assert 0 in rejected(r) and len(rejected(r)) > 1

    def test_short_stream_returns_none(self):
        words = np.random.default_rng(0).integers(0, 2**32, size=40, dtype=np.uint32)
        assert parse_vocabulary(words, 50, 3, 12) is None
        assert parse_vocabulary(words[:0], 1, 3, 12) is None

    def test_block_may_end_on_the_last_draw(self):
        words = np.random.default_rng(1).integers(0, 2**32, size=400, dtype=np.uint32)
        vocab, read = model_vocabulary(words.tolist(), 20, 3, 12)
        assert words_of(parse_vocabulary(words[:read], 20, 3, 12)) == (vocab, read)
        assert parse_vocabulary(words[: read - 1], 20, 3, 12) is None


# -------------------------------------------------------------------- zipf
@pytest.mark.parametrize(
    "vocab_size,n,s",
    [
        (2000, 75_000, 1.2),
        (50, 1000, 1.2),
        (1, 17, 1.2),
        (1000, 5000, 0.7),
        # Mastercard's merchants, over several blocks
        (1024, 3 * BLOCK + 7, 1.1),
    ],
)
def test_zipf_matches_choice(vocab_size, n, s):
    for seed in range(50):
        old, new = np.random.default_rng(seed), np.random.default_rng(seed)
        expect = choice_zipf(old, vocab_size, n, s)
        idx = zipf_indices(new, vocab_size, n, s)
        assert idx.dtype == expect.dtype and np.array_equal(idx, expect), seed
        assert state_of(new) == state_of(old)


def test_zipf_steps_past_guide_entries():
    # draws that land right on a guide bucket's lower edge, or just past a
    # CDF value inside it, must still resolve to searchsorted's answer
    from repro.apps.datagen import _zipf_guide

    cdf, guide = _zipf_guide(2000, 1.2)
    edges = np.arange(0, 2**16, 97) / 2**16
    u = np.concatenate([edges, cdf[:-1], np.nextafter(cdf[:-1], 1.0)])
    u = np.tile(u, BLOCK // u.size + 2)  # more than one block of draws

    class Fixed:
        """Serves ``u`` in order, one slice per ``random`` call."""

        drawn = 0

        def random(self, n):
            lo, self.drawn = self.drawn, self.drawn + n
            assert self.drawn <= u.size
            return u[lo : self.drawn].copy()

    fixed = Fixed()
    idx = zipf_indices(fixed, 2000, u.size)
    assert fixed.drawn == u.size
    assert np.array_equal(idx, np.searchsorted(cdf, u, side="right"))


# -------------------------------------------------------------------- text
TEXT_SIZES = [4, 8, 12, 17, 4096, 64 * KiB, 512 * KiB, 1 * MiB]


def assert_text_matches_join(seed, n_bytes):
    """``make_text`` against ``join_text`` at one recipe: the text, its word
    count and the generator's state, or the same refusal. Returns the
    oracle's text, or None if it refused."""
    old, new = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        expect = join_text(old, n_bytes)
    except ApplicationError as exc:
        with pytest.raises(ApplicationError, match="no word fits"):
            make_text(new, n_bytes)
        assert "no word fits" in str(exc)
        return None
    text, words = make_text(new, n_bytes)
    assert text.dtype == np.uint8 and np.array_equal(text, expect), (seed, n_bytes)
    assert words == np.count_nonzero(expect == 32), (seed, n_bytes)
    assert state_of(new) == state_of(old), (seed, n_bytes)
    return expect


@pytest.mark.parametrize("n_bytes", TEXT_SIZES)
def test_text_matches_join(n_bytes):
    seeds = range(6) if n_bytes >= 64 * KiB else range(12)
    for seed in seeds:
        assert_text_matches_join(seed, n_bytes)


def test_text_matches_join_at_block_edges():
    # recipes whose zipf draws, or whose text, end on the last word of a
    # block or the first word of the next: the draws do not depend on how
    # many follow, so the oracle's first words fix both sizes
    full_at_edge = 0
    for seed in range(4):
        rng = np.random.default_rng(seed)
        vocab = loop_vocabulary(rng, 2000)
        avg = sum(len(w) for w in vocab) / len(vocab) + 1
        ends = np.cumsum([len(vocab[i]) + 1 for i in choice_zipf(rng, 2000, 2 * BLOCK + 1)])
        for words in (BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1):
            # the smallest text size that draws ``words`` words
            drawn = math.ceil(words * avg)
            drawn += int(drawn / avg) < words
            assert int(drawn / avg) == words
            assert_text_matches_join(seed, drawn)
            # a text size that ``words`` words fill exactly
            expect = assert_text_matches_join(seed, int(ends[words - 1]))
            full_at_edge += np.count_nonzero(expect == 32) == words
    assert full_at_edge > 0
@pytest.mark.parametrize("block", [1, 7])
def test_text_matches_join_in_small_blocks(monkeypatch, block):
    # with many blocks per text, the text fills up blocks before the last
    # draw, and the draws after it must still be made
    monkeypatch.setattr(datagen, "BLOCK", block)
    for seed in range(8):
        for n_bytes in (17, 20_000):
            assert_text_matches_join(seed, n_bytes)


def test_small_texts_cover_both_outcomes():
    # the sizes above include recipes that raise and recipes that fit
    outcomes = set()
    for seed in range(12):
        try:
            join_text(np.random.default_rng(seed), 12)
            outcomes.add("fits")
        except ApplicationError:
            outcomes.add("raises")
    assert outcomes == {"fits", "raises"}


# -------------------------------------------------------------- mastercard
@pytest.mark.parametrize("n", [1, 4, 100, 8_000, 3 * BLOCK + 7])
def test_render_matches_loop(n):
    for seed in range(5):
        keys = np.random.default_rng(seed)
        cards = keys.integers(0, N_CARDS, n)
        merchants = keys.integers(0, N_MERCHANTS, n)
        cards[0], merchants[-1] = N_CARDS - 1, N_MERCHANTS - 1
        old, new = np.random.default_rng(seed), np.random.default_rng(seed)
        text, starts = _render_transactions(new, cards, merchants)
        expect_text, expect_starts = loop_render(old, cards, merchants)
        assert text.dtype == expect_text.dtype == np.uint8
        assert starts.dtype == expect_starts.dtype == np.int64
        assert np.array_equal(text, expect_text)
        assert np.array_equal(starts, expect_starts)
        assert state_of(new) == state_of(old)


# --------------------------------------------------------------------- dna
@pytest.mark.parametrize("n", [1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_dna_matches_index_matrix(n):
    app = get_app("dna")
    for seed in (0, 7):
        fragments = app.generate(n_bytes=n * FRAGMENT.record_size, seed=seed)
        expect = index_matrix_fragments(n, seed, app.genome_fraction)
        arr = fragments.mapped["fragments"]
        assert arr.dtype == expect.dtype and arr.shape == (n,)
        assert arr.tobytes() == expect.tobytes(), seed
