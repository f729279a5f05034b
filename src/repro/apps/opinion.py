"""Opinion Finder: tweet sentiment for a given subject.

Fixed-length tweet records (112 B: 20 word-ids of 4 B each + timestamp +
metadata; 73% read). Words of tweets mentioning the subject are looked up
in resident positive/negative/adverb dictionaries; an adverb doubles the
weight of the sentiment word that follows it (the paper's precedence rule).
Output is one aggregated sentiment score. Heavy lexical analysis per byte
makes this the most computation-dominant benchmark.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.apps.base import (
    AccessProfile,
    AppData,
    Application,
    field_run_dtype,
    register,
)
from repro.errors import ApplicationError
from repro.kernelc.codegen import ExecutionContext
from repro.kernelc.ir import (
    Assign,
    AtomicAdd,
    BinOp,
    Const,
    For,
    If,
    Kernel,
    Load,
    MappedRef,
    RecordSchema,
    ResidentLoad,
    Var,
)
from repro.units import GB

WORDS_PER_TWEET = 20
VOCAB = 1 << 14

_fields = [(f"w{j}", "i4") for j in range(WORDS_PER_TWEET)]
_fields += [("timestamp", "i8"), ("user", "i4"), ("retweets", "i4"), ("lang", "i4")]
TWEET = RecordSchema.packed(_fields, record_size=112)

#: the 20 word ids (80 B of 112 B) are read: ~71%; the paper reports 73%
READ_BYTES = WORDS_PER_TWEET * 4

#: the word ids w0..w19 as one (WORDS_PER_TWEET,) int32 field of each record
_WORDS_VIEW = field_run_dtype(TWEET, "w0", WORDS_PER_TWEET)
#: byte offsets of w0..w19 within a record, in the kernel's read order
_WORD_OFFSETS = np.array(
    [TWEET.field(f"w{j}").offset for j in range(WORDS_PER_TWEET)], dtype=np.int64
)
#: bits of the per-word code table that folds the four dictionaries
_POSITIVE, _NEGATIVE, _ADVERB, _SUBJECT = 1, 2, 4, 8
_DICTIONARY_BITS = (
    ("positive", _POSITIVE),
    ("negative", _NEGATIVE),
    ("adverb", _ADVERB),
    ("subject", _SUBJECT),
)


def _word_codes(data: AppData) -> np.ndarray:
    """int8 table: for each word id, the bits of the dictionaries it is in.

    Built once per dataset instance and kept in ``data.meta``. The
    dictionaries are 0/1 membership flags; anything else is refused,
    since the bit code could not reproduce its arithmetic.
    """
    codes = data.meta.get("_word_codes")
    if codes is None:
        codes = np.zeros(data.resident["subject"].size, dtype=np.int8)
        for name, bit in _DICTIONARY_BITS:
            flags = data.resident[name]
            if not np.isin(flags, (0, 1)).all():
                raise ApplicationError(f"opinion dictionary {name!r} is not 0/1 flags")
            codes |= flags.astype(np.int8) * np.int8(bit)
        data.meta["_word_codes"] = codes
    return codes


@register
class OpinionFinderApp(Application):
    """Dictionary-based sentiment scoring of subject-matching tweets."""

    name = "opinion"
    display_name = "Opinion Finder"
    paper_data_bytes = int(6.2 * GB)
    writes_mapped = False

    def __init__(self, subject_words: int = 64, dict_frac: float = 0.08):
        self.subject_words = subject_words
        self.dict_frac = dict_frac

    # ------------------------------------------------------------- data
    def generate(self, n_bytes: Optional[int] = None, seed: int = 0) -> AppData:
        n_bytes = n_bytes or self.default_bytes()
        n = max(1, n_bytes // TWEET.record_size)
        rng = np.random.default_rng(seed)
        arr = np.zeros(n, dtype=TWEET.numpy_dtype())
        for j in range(WORDS_PER_TWEET):
            arr[f"w{j}"] = rng.integers(0, VOCAB, n)
        arr["timestamp"] = rng.integers(0, 1 << 40, n)
        arr["user"] = rng.integers(0, 1 << 20, n)

        n_dict = int(VOCAB * self.dict_frac)
        ids = rng.permutation(VOCAB)
        positive = np.zeros(VOCAB, dtype=np.int8)
        negative = np.zeros(VOCAB, dtype=np.int8)
        adverb = np.zeros(VOCAB, dtype=np.int8)
        subject = np.zeros(VOCAB, dtype=np.int8)
        positive[ids[:n_dict]] = 1
        negative[ids[n_dict : 2 * n_dict]] = 1
        adverb[ids[2 * n_dict : 2 * n_dict + n_dict // 2]] = 1
        subject[ids[-self.subject_words :]] = 1
        return AppData(
            app=self.name,
            mapped={"tweets": arr},
            schemas={"tweets": TWEET},
            resident={
                "positive": positive,
                "negative": negative,
                "adverb": adverb,
                "subject": subject,
                "score": np.zeros(1, dtype=np.int64),
            },
            params={"numT": n},
            primary="tweets",
        )

    # ----------------------------------------------------- vectorized kernel
    def make_state(self, data: AppData) -> Any:
        return {"score": np.zeros(1, dtype=np.int64)}

    def process_chunk(self, data: AppData, state: Any, lo: int, hi: int) -> None:
        words = data.mapped["tweets"][lo:hi].view(_WORDS_VIEW)["run"]  # (n, W)
        codes = _word_codes(data)[words]
        codes = codes[(codes & _SUBJECT).any(axis=1)]  # tweets on the subject
        sentiment = (codes & _POSITIVE) - ((codes & _NEGATIVE) >> 1)
        # precedence: an adverb at position j-1 doubles word j's weight
        weight = np.ones_like(sentiment)
        weight[:, 1:] += (codes[:, :-1] & _ADVERB) >> 2
        state["score"][0] += int((sentiment * weight).sum(dtype=np.int64))

    def finalize(self, data: AppData, state: Any) -> int:
        return int(state["score"][0])

    def outputs_equal(self, a: Any, b: Any) -> bool:
        return int(a) == int(b)

    # ---------------------------------------------------- characterization
    def access_profile(self, data: AppData) -> AccessProfile:
        W = WORDS_PER_TWEET
        return AccessProfile(
            record_bytes=TWEET.record_size,
            read_bytes_per_record=READ_BYTES,
            write_bytes_per_record=0.0,
            reads_per_record=W,
            writes_per_record=0.0,
            elem_bytes=4,
            # four dictionary lookups + weighting per word, plus the
            # subject scan: dominant computation (paper Section VI-A)
            gpu_ops_per_record=220.0 * W,
            cpu_ops_per_record=180.0 * W,
            resident_bytes_per_record=8.0,  # dictionaries are cache-resident
            pattern_friendly=True,
            sliceable=True,
            gather_granularity_bytes=4.0 * W,  # word ids span contiguously
            addresses_per_record=1.0,  # the word-id block is one span
            gpu_divergence=28.0,  # per-word branching + dictionary probes
        )

    def chunk_read_offsets(self, data: AppData, lo: int, hi: int) -> np.ndarray:
        base = np.arange(lo, hi, dtype=np.int64) * TWEET.record_size
        return (base[:, None] + _WORD_OFFSETS[None, :]).reshape(-1)

    # ------------------------------------------------------- compiler path
    def kernel(self) -> Kernel:
        """Inner word loop unrolled over the fixed tweet width."""
        stmts: list = []
        # load all words, tracking subject mentions and weighted sentiment
        stmts.append(Assign("mentions", Const(0)))
        stmts.append(Assign("local", Const(0)))
        stmts.append(Assign("prev_adv", Const(0)))
        for j in range(WORDS_PER_TWEET):
            w = f"wv{j}"
            stmts.append(Assign(w, Load(MappedRef("tweets", Var("i"), f"w{j}"))))
            stmts.append(
                Assign(
                    "mentions",
                    BinOp("+", Var("mentions"), ResidentLoad("subject", Var(w))),
                )
            )
            sentiment = BinOp(
                "-",
                ResidentLoad("positive", Var(w)),
                ResidentLoad("negative", Var(w)),
            )
            weighted = BinOp(
                "*", sentiment, BinOp("+", Const(1), Var("prev_adv"))
            )
            stmts.append(Assign("local", BinOp("+", Var("local"), weighted)))
            stmts.append(Assign("prev_adv", ResidentLoad("adverb", Var(w))))
        stmts.append(
            If(
                BinOp(">", Var("mentions"), Const(0)),
                (AtomicAdd("score", Const(0), Var("local")),),
            )
        )
        body = (For("i", Var("start"), Var("end"), tuple(stmts)),)
        return Kernel(
            name="opinionKernel",
            body=body,
            mapped={"tweets": TWEET},
            resident=("positive", "negative", "adverb", "subject", "score"),
        )

    def make_ir_context(self, data: AppData) -> ExecutionContext:
        return ExecutionContext(
            mapped={"tweets": data.mapped["tweets"]},
            resident={
                "positive": data.resident["positive"].astype(np.int64),
                "negative": data.resident["negative"].astype(np.int64),
                "adverb": data.resident["adverb"].astype(np.int64),
                "subject": data.resident["subject"].astype(np.int64),
                "score": np.zeros(1, dtype=np.int64),
            },
            params=dict(data.params),
        )

    def ir_output(self, data: AppData, ctx: ExecutionContext) -> int:
        return int(ctx.resident["score"][0])
