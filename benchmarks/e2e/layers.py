"""Per-layer timing wrappers for the end-to-end benchmark.

:func:`install` wraps the public entry point of every layer of the system
in a timing span; :func:`uninstall` puts every original back.  Spans are
kept in memory by a :class:`Tracer` and turned into the per-layer metrics
(:func:`layer_metrics`), the report table (:func:`report`) and a
Chrome-trace file (:func:`dump_chrome_trace`) after the run.

The wrappers sit *outside* the program: nothing under ``src/`` knows it is
being timed.  A function imported by name into other modules (for example
``run_pipeline``, which every engine binds at import) is replaced at every
binding site, so the span is recorded whichever module calls it.

A span's *self* time is its duration minus the time covered by the spans
it directly encloses, so the self times of all spans add up to the time
covered by the outermost ones.  A layer's *busy* time and *calls* count
only its outermost spans, so a method that calls its parent class's
version of itself is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

#: every layer a span can belong to
LAYERS = (
    "serve.submit",
    "serve.dispatch",
    "pricing",
    "cache",
    "datagen",
    "chunking",
    "functional",
    "hashing",
    "engine",
    "pipeline",
    "sim",
    "analytic",
)

_MISSING = object()
_ORIGINAL = "__e2e_original__"


class Tracer:
    """In-memory span recorder for one process.

    Each span is a list ``[layer, name, start, end, parent, nested, tag,
    facts]``: ``parent`` is the index of the enclosing span (-1 for none),
    ``nested`` is true when a span of the same layer encloses it, ``tag``
    is whatever the caller set on :attr:`tag` when the span opened (the
    benchmark tags each server call with its request or round), and
    ``facts`` is a dict a wrapper may attach after the call returns.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.tag = None
        self._stack: list = []
        self._depth: dict = defaultdict(int)
        #: price each job got at submit, waiting for its measured run
        self.pending_prices: dict = defaultdict(list)

    def open(self, layer: str, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        nested = self._depth[layer] > 0
        self._depth[layer] += 1
        self._stack.append(idx)
        self.spans.append([layer, name, self.clock(), 0.0, parent, nested, self.tag, None])
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[3] = self.clock()
        self._depth[span[0]] -= 1
        self._stack.pop()


# --------------------------------------------------------------- wrapping
def _timed(tracer: Tracer, layer: str, name: str, fn, before=None, after=None):
    """``fn`` wrapped in a span; ``before``/``after`` run outside the span.

    ``before(*args, **kwargs)`` returns a state handed to ``after(state,
    result, *args, **kwargs)``, whose return value becomes the span's facts.
    """

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        state = before(*args, **kwargs) if before is not None else None
        idx = tracer.open(layer, name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            tracer.spans[idx][7] = after(state, result, *args, **kwargs)
        return result

    setattr(traced, _ORIGINAL, fn)
    return traced


def _recipe(data) -> tuple:
    """Content identity of a dataset, read without calling the hashing layer."""
    recipe = data.meta.get("datagen")
    if recipe is None:
        return (data.app, "instance", id(data))
    return (data.app, recipe["seed"], recipe["n_bytes"])


def _after_generate(_state, data, *_args, **_kwargs):
    return {"recipe": _recipe(data)}


def _after_finalize(_state, _result, _app, data, *_args, **_kwargs):
    return {"dataset": _recipe(data)}


def _after_cache_get(_state, result, *_args, **_kwargs):
    return {"lookup": True, "hit": result is not None}


def _after_pipeline(_state, result, *_args, **_kwargs):
    return {"fastpath": result.trace is None}


def _before_env_run(env, *_args, **_kwargs):
    return (env._eid, len(env._queue))


def _after_env_run(state, _result, env, *_args, **_kwargs):
    # every event processed was either queued at entry or scheduled since
    eid0, queued0 = state
    return {"events": (env._eid - eid0) + queued0 - len(env._queue)}


def _pricing_hooks(tracer: Tracer):
    def after_price(_state, price, _pricer, job, *_args, **_kwargs):
        if price is not None:
            tracer.pending_prices[job].append(price)
        return {"priced": price is not None}

    def after_observe(_state, _result, _pricer, jobs, elapsed, n_runs, *_a, **_k):
        # the measured per-run wall of this batch is what every price
        # given for one of its jobs predicted
        errors = []
        if n_runs > 0 and elapsed > 0.0:
            per_run = elapsed / n_runs
            for job in jobs:
                errors.extend(abs(p - per_run) for p in tracer.pending_prices.pop(job, ()))
        return {"errors": errors}

    return after_price, after_observe


class _Patches:
    """Every replaced attribute and the value it held before."""

    def __init__(self):
        self.saved: list = []

    def set(self, owner, attr: str, value) -> None:
        self.saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, old in reversed(self.saved):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self.saved.clear()


_installed: Optional[_Patches] = None


def _repro_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
    ]


def _patch_function(patches: _Patches, fn, wrapper) -> None:
    """Rebind ``fn`` to ``wrapper`` in every repro module that holds it."""
    for mod in _repro_modules():
        for attr, value in list(vars(mod).items()):
            if value is fn:
                patches.set(mod, attr, wrapper)


def _patch_method(patches: _Patches, tracer, cls, attr, layer, before=None, after=None):
    """Wrap ``cls.attr`` (own or inherited, plain or static) on ``cls``."""
    raw = next(base.__dict__[attr] for base in cls.__mro__ if attr in base.__dict__)
    static = isinstance(raw, staticmethod)
    fn = raw.__func__ if static else raw
    wrapper = _timed(tracer, layer, f"{cls.__name__}.{attr}", fn, before, after)
    patches.set(cls, attr, staticmethod(wrapper) if static else wrapper)


def _subclasses(cls) -> list:
    out, todo = [], [cls]
    while todo:
        klass = todo.pop()
        out.append(klass)
        todo.extend(klass.__subclasses__())
    return out


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points; spans go to ``tracer``."""
    global _installed
    if _installed is not None:
        raise RuntimeError("layer wrappers are already installed")
    # by module path: ``repro.bench.sweep`` is also the name of a function
    predict = importlib.import_module("repro.analytic.predict")
    apps_base = importlib.import_module("repro.apps.base")
    bench_sweep = importlib.import_module("repro.bench.sweep")
    pipeline = importlib.import_module("repro.runtime.pipeline")
    from repro.apps.base import APP_REGISTRY
    from repro.engines.base import Engine
    from repro.serve.pricing import JobPricer
    from repro.serve.scheduler import Server
    from repro.sim.core import Environment

    patches = _Patches()
    try:
        _patch_method(patches, tracer, Server, "submit", "serve.submit")
        _patch_method(patches, tracer, Server, "dispatch_round", "serve.dispatch")
        after_price, after_observe = _pricing_hooks(tracer)
        _patch_method(patches, tracer, JobPricer, "price", "pricing", after=after_price)
        _patch_method(patches, tracer, JobPricer, "observe_batch", "pricing", after=after_observe)
        for attr in ("key", "contains", "put"):
            _patch_method(patches, tracer, bench_sweep.RunCache, attr, "cache")
        _patch_method(
            patches, tracer, bench_sweep.RunCache, "get", "cache", after=_after_cache_get
        )
        for cls in APP_REGISTRY.values():
            _patch_method(patches, tracer, cls, "generate", "datagen", after=_after_generate)
            _patch_method(patches, tracer, cls, "chunk_bounds", "chunking")
            for attr in ("make_state", "start_pass", "process_chunk"):
                _patch_method(patches, tracer, cls, attr, "functional")
            _patch_method(patches, tracer, cls, "finalize", "functional", after=_after_finalize)
        for cls in _subclasses(Engine):
            for attr in ("run", "run_batch"):
                raw = cls.__dict__.get(attr)
                if raw is not None and not getattr(raw, "__isabstractmethod__", False):
                    _patch_method(patches, tracer, cls, attr, "engine")
        _patch_method(
            patches, tracer, Environment, "run", "sim",
            before=_before_env_run, after=_after_env_run,
        )
        functions = (
            (bench_sweep.content_run_key, "cache", None),
            (apps_base.dataset_key, "hashing", None),
            (apps_base.data_fingerprint, "hashing", None),
            (pipeline.run_pipeline, "pipeline", _after_pipeline),
            (predict.predicted_sim_time, "analytic", None),
            (predict.predict_run, "analytic", None),
        )
        for fn, layer, after in functions:
            wrapper = _timed(tracer, layer, fn.__name__, fn, after=after)
            _patch_function(patches, fn, wrapper)
    except BaseException:
        patches.restore()
        raise
    _installed = patches


def leftovers() -> list:
    """``(owner, attr)`` of every repro attribute still holding a wrapper."""
    found = []
    for mod in _repro_modules():
        for attr, value in list(vars(mod).items()):
            if hasattr(value, _ORIGINAL):
                found.append((mod.__name__, attr))
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in list(vars(value).items()):
                    if isinstance(cvalue, staticmethod):
                        cvalue = cvalue.__func__
                    if hasattr(cvalue, _ORIGINAL):
                        found.append((f"{mod.__name__}.{value.__name__}", cattr))
    return found


def uninstall() -> None:
    """Put every wrapped attribute back.

    A module first imported while the wrappers were installed may have
    bound a wrapper by name; those bindings are reverted too.
    """
    global _installed
    if _installed is None:
        return
    _installed.restore()
    _installed = None
    for mod in _repro_modules():
        for attr, value in list(vars(mod).items()):
            if hasattr(value, _ORIGINAL):
                setattr(mod, attr, getattr(value, _ORIGINAL))


# ----------------------------------------------------------------- metrics
def layer_totals(tracer: Tracer) -> dict:
    """``layer -> {"calls", "busy_s", "self_s"}`` over all recorded spans."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for span in spans:
        if span[4] >= 0:
            child[span[4]] += span[3] - span[2]
    totals = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for layer in LAYERS}
    for idx, span in enumerate(spans):
        row = totals[span[0]]
        dur = span[3] - span[2]
        row["self_s"] += dur - child[idx]
        if not span[5]:
            row["calls"] += 1
            row["busy_s"] += dur
    return totals


def _percentile_ms(values: list, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def _facts(tracer: Tracer, layer: str) -> list:
    return [s[7] for s in tracer.spans if s[0] == layer and s[7] is not None]


def layer_metrics(tracer: Tracer, busy_s: float, serve: Optional[dict]) -> dict:
    """Every per-layer metric one traced run can give, by name.

    ``busy_s`` is the time the benchmark measured around its calls into
    the system; ``serve`` carries the replay's own per-request
    observations (absent for the sweep).  A layer that did not run reports
    0.  ``trace.overhead_frac`` needs the untraced run too, so the caller
    adds it.
    """
    totals = layer_totals(tracer)
    serve = serve or {}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    gets = [f for f in _facts(tracer, "cache") if f.get("lookup")]
    recipes = [f["recipe"] for f in _facts(tracer, "datagen")]
    finalized = [f["dataset"] for f in _facts(tracer, "functional")]
    fast = [f["fastpath"] for f in _facts(tracer, "pipeline")]
    events = sum(f["events"] for f in _facts(tracer, "sim"))
    priced = [f["priced"] for f in _facts(tracer, "pricing") if "priced" in f]
    errors = [e for f in _facts(tracer, "pricing") for e in f.get("errors", ())]
    return {
        "serve.submit.busy_s": totals["serve.submit"]["busy_s"],
        "serve.dispatch.self_s": totals["serve.dispatch"]["self_s"],
        "serve.queue_wait_p50_ms": _percentile_ms(serve.get("queue_waits", []), 50),
        "serve.queue_wait_p99_ms": _percentile_ms(serve.get("queue_waits", []), 99),
        "serve.admit_lag_p99_ms": _percentile_ms(serve.get("admit_lags", []), 99),
        "serve.batch_size_mean": serve.get("batch_size_mean", 0.0),
        "serve.coalesced": serve.get("coalesced", 0),
        "pricing.calls": totals["pricing"]["calls"],
        "pricing.busy_s": totals["pricing"]["busy_s"],
        "pricing.mae_ms": ratio(sum(errors), len(errors)) * 1e3,
        "pricing.unpriced_frac": ratio(priced.count(False), len(priced)),
        "cache.lookups": len(gets),
        "cache.hit_ratio": ratio(sum(1 for g in gets if g["hit"]), len(gets)),
        "cache.busy_s": totals["cache"]["busy_s"],
        "datagen.calls": totals["datagen"]["calls"],
        "datagen.busy_s": totals["datagen"]["busy_s"],
        "datagen.regen_ratio": ratio(len(recipes), len(set(recipes))),
        "chunking.calls": totals["chunking"]["calls"],
        "chunking.busy_s": totals["chunking"]["busy_s"],
        "functional.passes": len(finalized),
        "functional.busy_s": totals["functional"]["busy_s"],
        "functional.passes_per_dataset": ratio(len(finalized), len(set(finalized))),
        "hashing.busy_s": totals["hashing"]["busy_s"],
        "engine.runs": totals["engine"]["calls"],
        "engine.self_s": totals["engine"]["self_s"],
        "pipeline.calls": totals["pipeline"]["calls"],
        "pipeline.busy_s": totals["pipeline"]["busy_s"],
        "pipeline.fastpath_ratio": ratio(sum(fast), len(fast)),
        "sim.runs": totals["sim"]["calls"],
        "sim.busy_s": totals["sim"]["busy_s"],
        "sim.events": events,
        "sim.host_us_per_event": ratio(totals["sim"]["busy_s"], events) * 1e6,
        "analytic.calls": totals["analytic"]["calls"],
        "analytic.busy_s": totals["analytic"]["busy_s"],
        "layers.unattributed_s": busy_s - sum(t["self_s"] for t in totals.values()),
    }


def breakdown(tracer: Tracer, busy_s: float) -> list:
    """Report rows ``(layer, busy_s, self_s, share_of_busy, calls)``,
    largest self time first, closed by the unattributed remainder."""
    totals = layer_totals(tracer)
    rows = sorted(
        ((name, t["busy_s"], t["self_s"], t["self_s"] / busy_s if busy_s else 0.0,
          t["calls"]) for name, t in totals.items()),
        key=lambda row: -row[2],
    )
    rest = busy_s - sum(row[2] for row in rows)
    rows.append(("(unattributed)", rest, rest, rest / busy_s if busy_s else 0.0, 0))
    return rows


def report(rows: list, busy_s: float) -> str:
    """The per-layer table: layer, busy s, self s, % of busy wall, calls."""
    lines = [
        f"busy wall: {busy_s:.4f} s",
        "| layer | busy s | self s | % of busy wall | calls |",
        "|---|---:|---:|---:|---:|",
    ]
    for name, busy, self_s, share, calls in rows:
        lines.append(
            f"| {name} | {busy:.4f} | {self_s:.4f} | {100.0 * share:.1f}% | {calls} |"
        )
    return "\n".join(lines)


def dump_chrome_trace(tracer: Tracer, path) -> None:
    """Write every span as a Chrome-trace complete event (open in
    chrome://tracing or Perfetto)."""
    origin = tracer.spans[0][2] if tracer.spans else 0.0
    events = []
    for layer, name, start, end, _parent, _nested, tag, facts in tracer.spans:
        args = {"tag": tag} if tag is not None else {}
        if facts:
            args.update({k: v for k, v in facts.items() if k != "errors"})
        events.append({
            "name": name, "cat": layer, "ph": "X", "pid": 0, "tid": 0,
            "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6, "args": args,
        })
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh, default=str)
