"""Tests for the synthetic data generators + interpreter guard rails."""

import contextlib
import signal
import tracemalloc

import numpy as np
import pytest

from repro.apps.base import APP_REGISTRY, get_app
from repro.apps.datagen import dna_bases, make_text, make_vocabulary, zipf_indices
from repro.errors import ApplicationError, CompilerError
from repro.units import MiB


@contextlib.contextmanager
def deadline(seconds):
    """Fail with ``TimeoutError`` instead of hanging past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestVocabulary:
    def test_size_and_uniqueness(self):
        rng = np.random.default_rng(0)
        vocab = make_vocabulary(rng, 500)
        assert len(vocab) == 500
        assert len(set(vocab)) == 500

    def test_lengths_bounded(self):
        rng = np.random.default_rng(1)
        vocab = make_vocabulary(rng, 100, min_len=3, max_len=12)
        assert all(3 <= len(w) <= 12 for w in vocab)

    def test_lowercase_only(self):
        rng = np.random.default_rng(2)
        for w in make_vocabulary(rng, 50):
            assert w.islower() and w.isalpha()

    def test_invalid_size(self):
        with pytest.raises(ApplicationError):
            make_vocabulary(np.random.default_rng(0), 0)

    @pytest.mark.parametrize(
        "size,min_len,max_len",
        [(27, 1, 1), (3, 0, 0), (5, 4, 3), (26 + 26**2 + 1, 1, 2)],
    )
    def test_impossible_request_rejected(self, size, min_len, max_len):
        with deadline(10), pytest.raises(ApplicationError):
            make_vocabulary(np.random.default_rng(0), size, min_len, max_len)

    def test_every_word_of_a_length_reachable(self):
        with deadline(10):
            vocab = make_vocabulary(np.random.default_rng(0), 26, 1, 1)
        assert sorted(vocab) == [bytes([c]) for c in b"abcdefghijklmnopqrstuvwxyz"]


class TestZipf:
    def test_head_is_hot(self):
        rng = np.random.default_rng(3)
        idx = zipf_indices(rng, 1000, 50_000)
        counts = np.bincount(idx, minlength=1000)
        assert counts[0] > counts[100] > counts[900]

    def test_range(self):
        rng = np.random.default_rng(3)
        idx = zipf_indices(rng, 50, 1000)
        assert idx.min() >= 0 and idx.max() < 50


class TestText:
    def test_size_close_to_request(self):
        rng = np.random.default_rng(4)
        text, _ = make_text(rng, 100_000)
        assert 0.9 * 100_000 <= text.size <= 100_000

    def test_ends_with_separator(self):
        rng = np.random.default_rng(4)
        assert make_text(rng, 10_000)[0][-1] == 32

    def test_no_double_separators(self):
        rng = np.random.default_rng(4)
        text, _ = make_text(rng, 10_000)
        pairs = (text[:-1] == 32) & (text[1:] == 32)
        assert not pairs.any()

    def test_words_separated_by_sep(self):
        text, words = make_text(np.random.default_rng(4), 10_000, sep=ord(","))
        spaced, spaced_words = make_text(np.random.default_rng(4), 10_000)
        assert text[-1] == ord(",") and not (text == 32).any()
        assert np.array_equal(np.where(text == ord(","), 32, text), spaced)
        assert words == spaced_words

    def test_tiny_request_rejected(self):
        with pytest.raises(ApplicationError):
            make_text(np.random.default_rng(0), 2)

    @pytest.mark.parametrize("seed,n_bytes", [(0, 4), (0, 8), (5, 12)])
    def test_no_word_fits_rejected(self, seed, n_bytes):
        with pytest.raises(ApplicationError, match="no word fits"):
            make_text(np.random.default_rng(seed), n_bytes)


def held_bytes(data) -> int:
    """Bytes of every array a dataset holds, each base buffer once (a
    view counts as the buffer it views)."""
    buffers = {}
    for group in (data.mapped, data.resident, data.meta):
        for value in group.values():
            if isinstance(value, np.ndarray):
                while isinstance(value.base, np.ndarray):
                    value = value.base
                buffers[id(value)] = value.nbytes
    return sum(buffers.values())


@pytest.mark.parametrize("app", sorted(APP_REGISTRY))
def test_generate_peak_is_bounded(app):
    # a generator writes into the arrays it returns and works in bounded
    # blocks, so its peak stays near what the dataset keeps
    tracemalloc.start()
    try:
        data = get_app(app).generate(n_bytes=8 * MiB, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = held_bytes(data)
    assert peak <= 1.6 * held, f"{app}: peak {peak / held:.2f}x the bytes it holds"


class TestDnaBases:
    def test_alphabet(self):
        rng = np.random.default_rng(5)
        bases = dna_bases(rng, 1000)
        assert set(np.unique(bases)) <= set(b"ACGT")

    def test_shape(self):
        rng = np.random.default_rng(5)
        assert dna_bases(rng, (10, 46)).shape == (10, 46)


class TestInterpreterGuard:
    def test_diverging_while_detected(self):
        from repro.kernelc import (
            Assign,
            BinOp,
            Const,
            ExecutionContext,
            Kernel,
            KernelInterpreter,
            Var,
            While,
        )

        k = Kernel(
            "spin",
            (
                Assign("x", Const(1)),
                While(BinOp(">", Var("x"), Const(0)), (Assign("x", Const(1)),)),
            ),
        )
        interp = KernelInterpreter(k, ExecutionContext(), max_steps=10_000)
        with pytest.raises(CompilerError, match="diverging"):
            interp.run_thread(0, 0, 1)
