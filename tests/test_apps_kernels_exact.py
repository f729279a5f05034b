"""The vectorized app kernels are bit-identical to their straightforward
forms.

Each ``*_reference`` below is the plain NumPy kernel the app shipped
before its fused rewrite, kept here only as an oracle: per-character
masked hashing, one-field-at-a-time gathers, per-statistic ``np.add.at``
and an O(n²) separator rescan per chunk. Every comparison is exact
(``np.array_equal`` / ``==``), never ``outputs_equal``'s tolerance.
"""

import time

import numpy as np
import pytest

from repro.apps import get_app
from repro.apps.base import AppData, separator_bounds
from repro.apps.dna import KMER
from repro.apps.dna import TABLE_SIZE as DNA_TABLE_SIZE
from repro.apps.netflix import STATS
from repro.apps.opinion import WORDS_PER_TWEET
from repro.apps.wordcount import (
    _INV_POW,
    _POW,
    _POW_BITS,
    BYTES,
    HASH_MOD,
    SEP,
    TABLE_SIZE,
    _word_hashes,
)
from repro.errors import ApplicationError

# ---------------------------------------------------------------- oracles


def _word_hashes_reference(text, lo, hi):
    """Rolling hash per word by a masked fancy-index loop per position."""
    seg = text[lo:hi]
    is_sep = seg == SEP
    is_char = ~is_sep
    if not is_char.any():
        return np.empty(0, dtype=np.uint32)
    prev_sep = np.empty(seg.size, dtype=bool)
    prev_sep[0] = True
    prev_sep[1:] = is_sep[:-1]
    starts = np.nonzero(is_char & prev_sep)[0]
    sep_pos = np.nonzero(is_sep)[0]
    if sep_pos.size:
        next_sep = np.searchsorted(sep_pos, starts)
        word_end = np.where(
            next_sep < sep_pos.size,
            sep_pos[np.minimum(next_sep, sep_pos.size - 1)],
            seg.size,
        )
    else:
        word_end = np.full(starts.shape, seg.size)
    lengths = word_end - starts
    h = np.zeros(starts.size, dtype=np.uint32)
    for j in range(int(lengths.max())):
        mask = j < lengths
        h[mask] = h[mask] * np.uint32(31) + seg[starts[mask] + j].astype(np.uint32)
    return h


def _separator_bounds_reference(text, sep, chunk_units):
    """Rescan ``text[hi:]`` for the next separator at every cut."""
    n = text.size
    bounds = []
    lo = 0
    while lo < n:
        hi = min(lo + chunk_units, n)
        if hi < n:
            nxt = np.nonzero(text[hi:] == sep)[0]
            hi = (hi + int(nxt[0]) + 1) if nxt.size else n
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _wordcount_reference(app, data, state, lo, hi):
    h = _word_hashes_reference(data.mapped["text"]["byte"], lo, hi)
    np.add.at(state["counts"], (h % TABLE_SIZE).astype(np.int64), 1)


def _mastercard_reference(app, data, state, lo, hi):
    rlo, rhi = app._record_range(data, lo, hi)
    cards = data.meta["cards"][rlo:rhi]
    merchants = data.meta["merchants"][rlo:rhi]
    target = data.params["target"]
    if state["pass"] == 0:
        state["customers"][cards[merchants == target]] = True
    else:
        mask = state["customers"][cards] & (merchants != target)
        np.add.at(state["counts"], merchants[mask], 1)


def _kmeans_reference(app, data, state, lo, hi):
    p = data.mapped["particles"]
    c = data.resident["clusters"]
    dx = p["x"][lo:hi, None] - c[None, :, 0]
    dy = p["y"][lo:hi, None] - c[None, :, 1]
    dz = p["z"][lo:hi, None] - c[None, :, 2]
    d2 = dx * dx + dy * dy + dz * dz
    p["cid"][lo:hi] = np.argmin(d2, axis=1).astype(np.int32)
    state["assigned"] += hi - lo


def _opinion_reference(app, data, state, lo, hi):
    t = data.mapped["tweets"]
    words = np.stack(
        [t[f"w{j}"][lo:hi].astype(np.int64) for j in range(WORDS_PER_TWEET)],
        axis=1,
    )
    pos = data.resident["positive"][words].astype(np.int64)
    neg = data.resident["negative"][words].astype(np.int64)
    adv = data.resident["adverb"][words].astype(np.int64)
    subj = data.resident["subject"][words]
    mentions = subj.any(axis=1)
    weight = np.ones_like(pos)
    weight[:, 1:] += adv[:, :-1]
    contrib = ((pos - neg) * weight).sum(axis=1)
    state["score"][0] += int(contrib[mentions].sum())


def _netflix_reference(app, data, state, lo, hi):
    r = data.mapped["ratings"]
    m = r["movie"][lo:hi].astype(np.int64)
    a = r["rating_a"][lo:hi]
    b = r["rating_b"][lo:hi]
    t = state["table"]
    np.add.at(t, m * STATS + 0, 1.0)
    np.add.at(t, m * STATS + 1, a)
    np.add.at(t, m * STATS + 2, b)
    np.add.at(t, m * STATS + 3, a * b)
    np.add.at(t, m * STATS + 4, a * a)
    np.add.at(t, m * STATS + 5, b * b)


def _dna_reference(app, data, state, lo, hi):
    f = data.mapped["fragments"]
    bases = np.stack([f[f"b{j}"][lo:hi] for j in range(KMER)], axis=1)
    h = np.zeros(bases.shape[0], dtype=np.uint32)
    for j in range(KMER):
        h = h * np.uint32(31) + bases[:, j].astype(np.uint32)
    np.add.at(state["table"], (h % DNA_TABLE_SIZE).astype(np.int64), 1)


REFERENCES = {
    "wordcount": _wordcount_reference,
    "mastercard": _mastercard_reference,
    "mastercard_indexed": _mastercard_reference,
    "kmeans": _kmeans_reference,
    "opinion": _opinion_reference,
    "netflix": _netflix_reference,
    "dna": _dna_reference,
}


def _run(app, data, chunk_units, process):
    """All passes over ``data`` in ``chunk_units`` chunks; returns
    (finalize output, final state)."""
    state = app.make_state(data)
    bounds = app.chunk_bounds(data, chunk_units)
    for p in range(app.n_passes):
        app.start_pass(data, state, p)
        for lo, hi in bounds:
            process(data, state, lo, hi)
    return app.finalize(data, state), state


def _assert_identical(a, b):
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            _assert_identical(a[key], b[key])
    else:
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def _text_data(text: np.ndarray) -> AppData:
    """A hand-built wordcount dataset over ``text``."""
    arr = np.zeros(text.size, dtype=BYTES.numpy_dtype())
    arr["byte"] = text
    return AppData(
        app="wordcount",
        mapped={"text": arr},
        schemas={"text": BYTES},
        primary="text",
    )


# ------------------------------------------------------------ word hashes


def _random_text(rng, n, sep_p, alphabet=b"abcdefghij"):
    letters = np.frombuffer(alphabet, dtype=np.uint8)
    text = letters[rng.integers(0, letters.size, n)]
    text[rng.random(n) < sep_p] = SEP
    return text


class TestWordHashes:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("sep_p", [0.0, 0.02, 0.15, 0.5, 1.0])
    def test_random_text_and_ranges(self, seed, sep_p):
        rng = np.random.default_rng(seed)
        text = _random_text(rng, 3000, sep_p)
        for lo, hi in [(0, text.size), *rng.integers(0, text.size, (8, 2))]:
            lo, hi = sorted((int(lo), int(hi)))
            got = _word_hashes(text, lo, hi)
            want = _word_hashes_reference(text, lo, hi)
            assert got.dtype == np.uint32
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "raw",
        [
            b"   leading",
            b"trailing   ",
            b"  both  ends  ",
            b"noseparatorsatall",
            b"     ",
            b"a",
            b" ",
            b"",
            b"a b  c   dd",
            b"averyveryverylongwordoverfortybytesinlength x"
            b" abcdefghijklmnopq",
        ],
    )
    def test_edge_shapes(self, raw):
        text = np.frombuffer(raw, dtype=np.uint8)
        for lo in range(min(text.size, 4)):
            for hi in range(lo, text.size + 1):
                np.testing.assert_array_equal(
                    _word_hashes(text, lo, hi), _word_hashes_reference(text, lo, hi)
                )

    def test_every_byte_value(self):
        # bytes 0..255, the separator included, over long and short words
        rng = np.random.default_rng(7)
        text = rng.integers(0, 256, 20_000).astype(np.uint8)
        np.testing.assert_array_equal(
            _word_hashes(text, 5, 19_990), _word_hashes_reference(text, 5, 19_990)
        )

    def test_ranges_past_the_power_table(self):
        # longer than one 2^16 block, unaligned at both ends, with a
        # 300-byte word straddling the first block edge
        rng = np.random.default_rng(3)
        block = 1 << _POW_BITS
        text = _random_text(rng, 3 * block + 777, 0.1)
        text[block - 150 : block + 150] = ord("q")
        lo, hi = 13, text.size - 29
        np.testing.assert_array_equal(
            _word_hashes(text, lo, hi), _word_hashes_reference(text, lo, hi)
        )

    def test_power_tables_match_modular_pow(self):
        rng = np.random.default_rng(0)
        ks = np.concatenate([np.arange(70), rng.integers(0, 1 << 32, 200)])
        inv31 = pow(31, -1, HASH_MOD)
        for (lo_t, hi_t), base in ((_POW, 31), (_INV_POW, inv31)):
            got = lo_t[ks & ((1 << _POW_BITS) - 1)] * hi_t[ks >> _POW_BITS]
            want = [pow(base, int(k), HASH_MOD) for k in ks]
            assert got.tolist() == want


# ---------------------------------------------------------- chunk bounds


class TestSeparatorBounds:
    @pytest.mark.parametrize("name", ["wordcount", "mastercard"])
    @pytest.mark.parametrize("trailing_separator", [True, False])
    def test_equal_to_quadratic_reference(self, name, trailing_separator):
        app = get_app(name)
        data = app.generate(n_bytes=12_000, seed=5)
        array = data.primary
        sep = SEP if name == "wordcount" else ord(";")
        if not trailing_separator:
            data.mapped[array] = data.mapped[array][:-1]
            assert data.mapped[array]["byte"][-1] != sep
        text = data.mapped[array]["byte"]
        n = text.size
        for units in (1, 7, 4096, n - 1, n, 2 * n):
            assert app.chunk_bounds(data, units) == _separator_bounds_reference(
                text, sep, units
            ), units

    def test_rejects_empty_chunks(self):
        app = get_app("wordcount")
        with pytest.raises(ApplicationError):
            app.chunk_bounds(app.generate(n_bytes=4096, seed=0), 0)

    def test_separator_positions_are_computed_once(self):
        app = get_app("mastercard")
        data = app.generate(n_bytes=8192, seed=1)
        first = app.chunk_bounds(data, 500)
        # the index is cached per instance: a hidden edit is not re-scanned
        data.mapped["transactions"]["byte"][:] = ord("9")
        assert app.chunk_bounds(data, 500) == first

    def test_linear_scaling_at_16_mib(self):
        base = get_app("wordcount").generate(n_bytes=1 << 20, seed=2)
        text = np.tile(base.mapped["text"]["byte"], 16)
        data = _text_data(text)
        units = 64 << 10
        t0 = time.perf_counter()
        bounds = get_app("wordcount").chunk_bounds(data, units)
        elapsed = time.perf_counter() - t0
        assert bounds == separator_bounds(np.flatnonzero(text == SEP), text.size, units)
        assert elapsed < 0.5, f"chunk_bounds took {elapsed:.2f} s at 16 MiB"


# --------------------------------------------------------- whole kernels


@pytest.mark.parametrize("name", sorted(REFERENCES))
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "n_bytes,parts",
    # about `parts` chunks per pass; 10**9 parts means one-unit chunks
    [(3000, 10**9), (40_000, 97), (40_000, 7), (40_000, 1)],
)
def test_finalize_identical_to_reference(name, seed, n_bytes, parts):
    app = get_app(name)
    # fresh datasets per side: kmeans writes its output into the records
    data, ref_data = (app.generate(n_bytes=n_bytes, seed=seed) for _ in "ab")
    units = max(1, app.n_units(data) // parts)
    out, state = _run(app, data, units, app.process_chunk)
    process = lambda d, s, lo, hi: REFERENCES[name](app, d, s, lo, hi)
    ref_out, ref_state = _run(app, ref_data, units, process)
    _assert_identical(out, ref_out)
    for key in ref_state:
        _assert_identical(state[key], ref_state[key])


def _tie_data(app):
    """Six particles at (1, 0, 0), equidistant (d^2 = 1) to clusters 2, 4
    and 5, except particle 1, which is nearest to cluster 4."""
    data = app.generate(n_bytes=48 * 6, seed=0)
    clusters = np.full((6, 3), 50.0)
    clusters[2] = (2.0, 0.0, 0.0)
    clusters[4] = (0.0, 0.0, 0.0)
    clusters[5] = (1.0, 1.0, 0.0)
    data.resident["clusters"] = clusters
    p = data.mapped["particles"]
    p["x"], p["y"], p["z"] = 1.0, 0.0, 0.0
    p["x"][1] = 0.5
    return data


def test_kmeans_tie_takes_the_lowest_cluster_id():
    app = get_app("kmeans")
    out, _ = _run(app, _tie_data(app), 2, app.process_chunk)
    process = lambda d, s, lo, hi: _kmeans_reference(app, d, s, lo, hi)
    ref_out, _ = _run(app, _tie_data(app), 2, process)
    _assert_identical(out, ref_out)
    assert out.tolist() == [2, 4, 2, 2, 2, 2]


class TestOpinionCodes:
    def test_non_flag_dictionary_is_refused(self):
        app = get_app("opinion")
        data = app.generate(n_bytes=4096, seed=0)
        data.resident["adverb"][3] = 2
        with pytest.raises(ApplicationError, match="adverb"):
            app.reference(data)
