"""Application base classes and the access-characterization contract.

Every app provides three synchronized views of the same computation:

1. **Vectorized kernel** — ``make_state`` / ``process_chunk`` / ``finalize``:
   NumPy-speed semantics used by every engine for functional output (all
   five schemes must produce identical results; engines differ in *when and
   what* they move, which the simulator prices).
2. **Kernel IR** — ``kernel()`` + ``make_ir_context()``: the same program in
   :mod:`repro.kernelc` IR, used to exercise the real compiler
   transformations; tests cross-validate it against the vectorized kernel
   on small inputs.
3. **Access characterization** — ``access_profile()`` and
   ``chunk_read_offsets()``: what the kernel touches, feeding Table I, the
   pattern recognizer, the assembly stage and the coalescing model.
"""

from __future__ import annotations

import abc
import functools
import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro.apps.datagen import DATAGEN_VERSION
from repro.errors import ApplicationError
from repro.kernelc.codegen import ExecutionContext
from repro.kernelc.ir import Kernel, RecordSchema

#: default down-scaling of the paper's dataset sizes (4.5-6.4 GB -> tens of MB)
DEFAULT_SCALE = 1.0 / 100.0


@dataclass
class AppData:
    """One generated dataset instance.

    A dataset that carries its recipe (``meta["datagen"]``) can
    :meth:`drop` its ``mapped`` and ``resident`` arrays. The first read of
    either regenerates both from the recipe, byte for byte, and ``meta`` is
    never touched: what was derived from the bytes (the functional memo,
    the separator index, the fingerprint token, the generator's own
    tables) outlives the drop.
    """

    app: str
    #: mapped (streamed) structures: name -> structured array
    mapped: dict[str, np.ndarray]
    #: schemas of the mapped structures
    schemas: dict[str, RecordSchema]
    #: GPU-resident structures (copied once, not streamed)
    resident: dict[str, np.ndarray] = field(default_factory=dict)
    #: scalar kernel parameters
    params: dict[str, Any] = field(default_factory=dict)
    #: name of the primary streamed structure
    primary: str = ""
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def primary_array(self) -> np.ndarray:
        return self.mapped[self.primary]

    @property
    def n_records(self) -> int:
        # every memo key built from data_fingerprint reads this: one dict
        # probe, where holds_arrays and primary_array are two more calls
        mapped = self.__dict__.get("mapped")
        if mapped is None:
            return self._dropped_records
        return int(mapped[self.primary].shape[0])

    @property
    def holds_arrays(self) -> bool:
        """False between a :meth:`drop` and the next read of the arrays."""
        return "mapped" in self.__dict__

    def drop(self, regenerate: Callable[[], AppData]) -> None:
        """Release ``mapped`` and ``resident``; the first read of either
        takes both back from ``regenerate()``, which must make this
        dataset again from its recipe (``get_app(app).generate(n_bytes=,
        seed=)``). Dropping a dataset that holds no arrays changes nothing.

        The arrays come back as generated, not as a pass left them: a
        restored K-means dataset holds ``cid`` as generated until a pass
        runs over it, and a run whose pass is memoized runs none.
        """
        if "datagen" not in self.meta:
            raise ApplicationError(
                f"{self.app}: a dataset without a recipe cannot drop its arrays"
            )
        if self.holds_arrays:
            self._dropped_records = self.n_records
            self._regenerate = regenerate
            del self.mapped, self.resident

    def __getattr__(self, name: str) -> Any:
        # reached only for an attribute the instance lacks: the arrays of
        # a dropped dataset, which come back from its recipe
        regenerate = self.__dict__.get("_regenerate")
        if name not in ("mapped", "resident") or regenerate is None:
            raise AttributeError(name)
        fresh = regenerate()
        self.mapped, self.resident = fresh.mapped, fresh.resident
        return self.__dict__[name]

    @property
    def record_bytes(self) -> int:
        return self.schemas[self.primary].record_size

    @property
    def total_mapped_bytes(self) -> int:
        return sum(
            arr.shape[0] * self.schemas[name].record_size
            for name, arr in self.mapped.items()
        )

    def byte_view(self, name: Optional[str] = None) -> np.ndarray:
        arr = self.mapped[name or self.primary]
        return arr.view(np.uint8).reshape(-1)


_FINGERPRINT_COUNTER = itertools.count(1)

def data_fingerprint(data: AppData) -> tuple:
    """Hashable *identity* token of one dataset instance.

    :class:`AppData` itself is unhashable (mutable dataclass), so caches
    (engine schedule memoization, ``bench.sweep``'s run cache) key on this
    instead. The token is minted once per instance and stashed in
    ``data.meta`` — two datasets get equal fingerprints only if they are
    the *same object*, which is exactly the safe notion of identity for an
    in-process cache: generating the data again (even with the same seed)
    makes a new object with a fresh token and therefore fresh cache
    entries. A dataset that drops its arrays (:meth:`AppData.drop`) keeps
    its token: the arrays it reads back are regenerated from its recipe,
    the same bytes it dropped, so what was keyed on the token still holds.

    Use this key for caches scoped to one process whose entries may depend
    on anything the caller did to the instance (in-place edits included).
    For caches that must survive the process — the on-disk tier of
    :class:`repro.bench.sweep.RunCache` — or be shared between processes
    (a sweep's process-pool workers), use :func:`dataset_key`,
    which names the dataset by *content* instead.
    """
    token = data.meta.get("_fingerprint")
    if token is None:
        token = next(_FINGERPRINT_COUNTER)
        data.meta["_fingerprint"] = token
    return (data.app, data.n_records, token)


def recipe_key(app: str, seed: int, n_bytes: Optional[int], version: int) -> tuple:
    """Content key of the dataset ``app.generate(n_bytes, seed)`` makes at
    datagen ``version``, named without generating it.

    The one place this tuple is built: :func:`dataset_key` of a generated
    dataset and :attr:`repro.bench.jobs.DatasetSpec.key` of its recipe are
    equal, so a run cached under one is found under the other.
    """
    return ("datagen", app, seed, n_bytes, version)


def dataset_key(data: AppData) -> tuple:
    """Hashable *content* token of a dataset: stable across processes.

    Unlike :func:`data_fingerprint` (identity: same object ⇒ same key),
    this names the dataset by what it contains, so two independently
    regenerated datasets — in this process, another process, or another CI
    run — get equal keys exactly when their bytes are equal. That is the
    right key for the persistent run cache and for a sweep's process-pool
    workers, which regenerate data locally instead of shipping
    arrays; it is the *wrong* key for anything keyed on an instance that
    may have been mutated in place after generation.

    Datasets produced by a registered app's ``generate`` in its default
    configuration carry their generation recipe in ``data.meta["datagen"]``
    (stamped automatically by :class:`Application`), so the key is the
    cheap :func:`recipe_key` tuple ``("datagen", app, seed, n_bytes,
    DATAGEN_VERSION)`` — the datagen version ties it to the generator
    implementation. Every other dataset (hand-built, or generated by a
    configured or unregistered app) falls back to a SHA-256 over the
    mapped/resident arrays and params, which is equally stable, just paid
    per instance.
    """
    token = data.meta.get("_dataset_key")
    if token is None:
        recipe = data.meta.get("datagen")
        if recipe is not None:
            token = recipe_key(
                data.app, recipe["seed"], recipe["n_bytes"], recipe["version"]
            )
        else:
            digest = hashlib.sha256()
            for group in (data.mapped, data.resident):
                for name in sorted(group):
                    digest.update(name.encode())
                    digest.update(np.ascontiguousarray(group[name]).tobytes())
            digest.update(repr(sorted(data.params.items())).encode())
            token = ("sha256", data.app, digest.hexdigest())
        data.meta["_dataset_key"] = token
    return token


def field_run_dtype(schema: RecordSchema, first: str, count: int) -> np.dtype:
    """Record dtype exposing ``count`` back-to-back fields of one type,
    starting at ``first``, as a single ``(count,)`` subarray field ``run``.

    Viewing a structured array through it reads those fields as one
    strided ``(n, count)`` array, with no per-field copies.
    """
    names = schema.field_names
    start = names.index(first)
    run = schema.fields[start : start + count]
    item = np.dtype(run[0].dtype)
    if len(run) != count or any(
        np.dtype(f.dtype) != item or f.offset != run[0].offset + j * item.itemsize
        for j, f in enumerate(run)
    ):
        raise ApplicationError(
            f"fields {first}..+{count} are not {count} packed {item} fields"
        )
    return np.dtype(
        {
            "names": ["run"],
            "formats": [(item, (count,))],
            "offsets": [run[0].offset],
            "itemsize": schema.record_size,
        }
    )


def separator_bounds(
    seps: np.ndarray, n: int, chunk_units: int
) -> list[tuple[int, int]]:
    """Split ``[0, n)`` into chunks of about ``chunk_units`` units, each
    cut just past the first separator at or after its nominal end.

    ``seps`` holds the sorted separator positions; each cut is one binary
    search, so the whole split is O(chunks · log seps). A chunk with no
    separator at or after its nominal end runs to ``n``.
    """
    bounds = []
    lo = 0
    while lo < n:
        hi = lo + chunk_units
        if hi < n:
            j = int(np.searchsorted(seps, hi))
            hi = int(seps[j]) + 1 if j < seps.size else n
        else:
            hi = n
        bounds.append((lo, hi))
        lo = hi
    return bounds


@dataclass(frozen=True)
class AccessProfile:
    """Static per-record access characterization of an app's kernel.

    These are the quantities Table I reports (read/modified proportions of
    mapped data) plus what the cost models need (operation counts, access
    granularity, pattern-friendliness).
    """

    #: bytes of one (average) record
    record_bytes: float
    #: mapped bytes read per record
    read_bytes_per_record: float
    #: mapped bytes written per record
    write_bytes_per_record: float
    #: individual mapped read accesses per record
    reads_per_record: float
    #: individual mapped write accesses per record
    writes_per_record: float
    #: typical access granularity (element size)
    elem_bytes: int
    #: GPU arithmetic per record (ops)
    gpu_ops_per_record: float
    #: CPU arithmetic per record for the CPU baselines (ops; typically
    #: higher than GPU ops/record because scalar ISAs lack the GPU's free
    #: lane parallelism within a record)
    cpu_ops_per_record: float
    #: GPU-side traffic to resident structures per record (bytes)
    resident_bytes_per_record: float = 0.0
    #: do per-thread address streams follow a stride cycle?
    pattern_friendly: bool = True
    #: can the compiler build the address slice? (False -> full-transfer
    #: fallback)
    sliceable: bool = True
    #: variable-length records (drives Table I's record-type column)
    variable_length: bool = False
    #: how many passes over the mapped data the computation makes
    passes: int = 1
    #: contiguous-run size (bytes) the assembly gather can copy per loop
    #: iteration once a pattern exposes the layout; defaults to one element
    gather_granularity_bytes: float = 0.0
    #: addresses the sliced kernel emits per record when no pattern is
    #: recognized — one per contiguous field *span*, not one per element
    #: (the compiler coalesces adjacent accesses into one address). 0 means
    #: "same as reads_per_record".
    addresses_per_record: float = 0.0
    #: warp-divergence/atomic-serialization penalty on GPU arithmetic
    #: throughput (1 = uniform control flow; 32 = fully serialized warp).
    #: Byte-parsing kernels branch per character and contend on shared
    #: hash tables, which is what makes Word Count and Opinion Finder
    #: computation-dominant in the paper.
    gpu_divergence: float = 1.0

    @property
    def emitted_addresses_per_record(self) -> float:
        """Effective address count per record for the no-pattern path."""
        return self.addresses_per_record or self.reads_per_record

    @property
    def gather_run_bytes(self) -> float:
        """Effective contiguous-run size for pattern-driven gathering."""
        return self.gather_granularity_bytes or float(self.elem_bytes)

    @property
    def read_fraction(self) -> float:
        """Table I's "Read" column."""
        return self.read_bytes_per_record / self.record_bytes

    @property
    def write_fraction(self) -> float:
        """Table I's "Modified" column."""
        return self.write_bytes_per_record / self.record_bytes


def _stamping_generate(generate):
    """Wrap an app's ``generate`` so a dataset records its recipe when the
    recipe regenerates it.

    ``data.meta["datagen"]`` carries everything needed to regenerate the
    dataset deterministically elsewhere — the content identity behind
    :func:`dataset_key` and a sweep's process-pool workers. The
    requested (pre-default-resolution) ``n_bytes`` is recorded: two calls
    with the same arguments produce the same bytes, which is all the key
    needs. A recipe names only the app, so only an app that
    :func:`get_app` rebuilds — its registered class in its default
    configuration — stamps one; any other dataset (``KMeansApp(4)``'s, a
    MapReduce job's) is keyed by its bytes.

    A negative ``n_bytes`` raises :class:`ApplicationError` for every app;
    ``None`` and ``0`` mean the app's default size.
    """

    @functools.wraps(generate)
    def wrapper(self, n_bytes: Optional[int] = None, seed: int = 0) -> "AppData":
        if n_bytes is not None and n_bytes < 0:
            raise ApplicationError(
                f"{self.name}: dataset size must be >= 0 bytes, got {n_bytes}"
            )
        data = generate(self, n_bytes=n_bytes, seed=seed)
        if (
            isinstance(data, AppData)
            and is_registered(self)
            and vars(self) == vars(type(self)())
        ):
            data.meta.setdefault(
                "datagen",
                {"seed": seed, "n_bytes": n_bytes, "version": DATAGEN_VERSION},
            )
        return data

    wrapper._datagen_stamped = True
    return wrapper


class Application(abc.ABC):
    """Base class for the benchmark applications.

    The contract of a registered app (:func:`is_registered`): its pass —
    ``make_state``, then each pass's ``start_pass`` and ``process_chunk``
    over ``chunk_bounds`` in order, then ``finalize`` — is pure, and its
    output does not depend on its own ``chunk_bounds``. Every chunking of
    one dataset gives a bit-equal output, and running the pass again
    leaves the dataset as the first run left it. Every engine relies on
    this: it runs a registered app's pass once per dataset instance,
    whatever its chunking (``Engine._functional_output``), and
    ``tests/test_functional_memo.py`` checks it over ``APP_REGISTRY``.
    """

    #: registry key, e.g. ``"kmeans"``
    name: str = ""
    #: label used in figures, e.g. ``"K-means"``
    display_name: str = ""
    #: dataset size used in the paper (Table I)
    paper_data_bytes: int = 0
    #: does the kernel modify mapped data?
    writes_mapped: bool = False
    #: how many passes over the mapped data the computation makes
    n_passes: int = 1
    #: whether the vectorized backend (repro.kernelc.compile) is expected
    #: to admit this app's kernel; False = the vectorizability analysis is
    #: known to reject it (loop-carried state) and the interpreter fallback
    #: is the documented behaviour — ``verify --compiled`` asserts the
    #: verdict matches this expectation either way
    compiled_expected: bool = True

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        generate = cls.__dict__.get("generate")
        if generate is not None and not getattr(generate, "_datagen_stamped", False):
            cls.generate = _stamping_generate(generate)

    # ------------------------------------------------------------- data
    @abc.abstractmethod
    def generate(self, n_bytes: Optional[int] = None, seed: int = 0) -> AppData:
        """Create a synthetic dataset of ~``n_bytes`` mapped data.

        Concrete implementations are wrapped by :func:`_stamping_generate`
        (via ``__init_subclass__``): when :func:`get_app` rebuilds this
        app, the returned dataset's ``meta["datagen"]`` records ``{seed,
        n_bytes, version}`` so :func:`dataset_key` and the process-pool
        sweep workers can reproduce it by recipe.
        """

    def default_bytes(self) -> int:
        return max(1, int(self.paper_data_bytes * DEFAULT_SCALE))

    # ----------------------------------------------------- vectorized kernel
    @abc.abstractmethod
    def make_state(self, data: AppData) -> Any:
        """Fresh computation state (resident outputs, accumulators)."""

    @abc.abstractmethod
    def process_chunk(self, data: AppData, state: Any, lo: int, hi: int) -> None:
        """Process records ``[lo, hi)`` of the primary structure."""

    @abc.abstractmethod
    def finalize(self, data: AppData, state: Any) -> Any:
        """Produce the final output from the state."""

    def start_pass(self, data: AppData, state: Any, pass_idx: int) -> None:
        """Hook before each pass of a multi-pass computation."""

    def reference(self, data: AppData) -> Any:
        """Full-range run over all passes (the CPU-serial semantics)."""
        state = self.make_state(data)
        for p in range(self.n_passes):
            self.start_pass(data, state, p)
            self.process_chunk(data, state, 0, self.n_units(data))
        return self.finalize(data, state)

    def outputs_equal(self, a: Any, b: Any) -> bool:
        """Engine-output comparison; override for tolerant comparisons."""
        if isinstance(a, np.ndarray):
            return bool(np.array_equal(a, b))
        return bool(a == b)

    def merge_states(self, data: AppData, states: list) -> Any:
        """Reduce per-shard states into one (the cross-GPU merge stage).

        The default covers dict states of disjoint-shard accumulators:
        bool arrays OR together (membership sets), numeric arrays sum
        elementwise (count/moment tables starting from zeros), and
        scalars are kept when every shard agrees (pass counters) or
        summed otherwise. Apps whose state breaks that contract — an
        array carried non-zero across a merge, a scalar that is neither
        invariant nor additive — must override this (kmeans does, for
        its ``assigned`` tally).
        """
        if not states:
            raise ApplicationError("merge_states needs at least one state")
        if len(states) == 1:
            return states[0]
        first = states[0]
        if not isinstance(first, dict):
            raise ApplicationError(
                f"{self.name}: default merge_states only handles dict "
                f"states; override it for {type(first).__name__} state"
            )
        merged: dict = {}
        for key, head in first.items():
            values = [s[key] for s in states]
            if isinstance(head, np.ndarray):
                if head.dtype == np.bool_:
                    merged[key] = np.logical_or.reduce(values)
                else:
                    acc = head.copy()
                    for v in values[1:]:
                        acc += v
                    merged[key] = acc
            elif all(v == head for v in values[1:]):
                merged[key] = head
            else:
                merged[key] = sum(values)
        return merged

    # ------------------------------------------------------------ chunking
    def n_units(self, data: AppData) -> int:
        """Number of independently processable units (records or bytes)."""
        return data.n_records

    def chunk_bounds(self, data: AppData, chunk_units: int) -> list[tuple[int, int]]:
        """Split the unit range into chunks; apps with alignment constraints
        (variable-length records) override this."""
        if chunk_units < 1:
            raise ApplicationError("chunk_units must be >= 1")
        n = self.n_units(data)
        return [(lo, min(lo + chunk_units, n)) for lo in range(0, n, chunk_units)]

    def _separator_bounds(
        self, data: AppData, array: str, sep: int, chunk_units: int
    ) -> list[tuple[int, int]]:
        """Byte chunks of ``data.mapped[array]`` that each end just past a
        ``sep`` byte, so no delimiter-terminated record straddles two.

        The separator positions are found once per dataset instance and
        kept in ``data.meta`` (like :func:`data_fingerprint`'s token, so an
        in-place edit of the bytes after the first call is not seen).
        """
        if chunk_units < 1:
            raise ApplicationError("chunk_units must be >= 1")
        key = f"_separators:{array}:{sep}"
        seps = data.meta.get(key)
        if seps is None:
            seps = np.flatnonzero(data.mapped[array]["byte"] == sep)
            data.meta[key] = seps
        return separator_bounds(seps, self.n_units(data), chunk_units)

    # ---------------------------------------------------- characterization
    @abc.abstractmethod
    def access_profile(self, data: AppData) -> AccessProfile:
        """Static access characterization for the cost models / Table I."""

    @abc.abstractmethod
    def chunk_read_offsets(self, data: AppData, lo: int, hi: int) -> np.ndarray:
        """Byte offsets (into the primary byte view) the kernel reads for
        units ``[lo, hi)``, in per-unit program order.

        For any ``lo <= m <= hi``, the offsets of ``[lo, hi)`` are those of
        ``[lo, m)`` followed by those of ``[m, hi)``, and an empty range
        reads none: BigKernel's pattern sampler relies on it to size a
        thread's stretch in a few calls (``engines.bigkernel``)."""

    def chunk_write_offsets(self, data: AppData, lo: int, hi: int) -> np.ndarray:
        """Byte offsets the kernel writes for units ``[lo, hi)``."""
        return np.empty(0, dtype=np.int64)

    # ------------------------------------------------------- compiler path
    def kernel(self) -> Optional[Kernel]:
        """Kernel-IR form, when expressible (None only if genuinely not)."""
        return None

    def make_ir_context(self, data: AppData) -> Optional[ExecutionContext]:
        """Execution context binding ``data`` for the IR interpreter."""
        return None

    def ir_output(self, data: AppData, ctx: ExecutionContext) -> Any:
        """Extract the comparable output after an IR run."""
        raise NotImplementedError


APP_REGISTRY: dict[str, type] = {}


def register(cls):
    """Class decorator adding an app to the registry."""
    if not cls.name:
        raise ApplicationError(f"{cls.__name__} has no name")
    APP_REGISTRY[cls.name] = cls
    return cls


def is_registered(app: Application) -> bool:
    """Is ``app`` an instance of exactly the class registered under its
    name? Such an app keeps the :class:`Application` contract: its pass is
    pure and its output does not depend on its own ``chunk_bounds``. So
    ``Engine._functional_output`` runs it once per dataset, and only these
    apps' datasets can carry a recipe."""
    return APP_REGISTRY.get(app.name) is type(app)


def get_app(name: str) -> Application:
    """Instantiate a registered application by name."""
    try:
        return APP_REGISTRY[name]()
    except KeyError:
        raise ApplicationError(
            f"unknown app {name!r}; known: {sorted(APP_REGISTRY)}"
        )
