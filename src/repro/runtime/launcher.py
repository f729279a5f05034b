"""The BigKernel front end: launch an IR kernel over streaming data.

This is the paper's programming model as a single call: write one kernel,
``streamingMalloc``/``streamingMap`` the big structure, and launch —
chunking, buffering, address generation, pattern recognition, transfers
and layout are nobody's problem:

    registry = StreamingRegistry()
    registry.streaming_malloc("d_particles", nbytes)
    registry.streaming_map("d_particles", host_array, schema, writable=True)
    result = bigkernel_launch(kernel, registry, resident=..., params=...)

Everything the engines need — the access profile, the address streams,
the functional semantics — is *derived from the kernel itself*:
:class:`KernelApplication` runs the compiler transformations and measures
a sample execution instead of requiring a hand-written
:class:`~repro.apps.base.Application`. Execution is interpreter-speed, so
this front end targets demo/validation scale; the packaged benchmarks use
vectorized Application kernels for bulk runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro.apps.base import AccessProfile, AppData, Application
from repro.engines.base import EngineConfig, RunResult
from repro.engines.bigkernel import BigKernelEngine
from repro.errors import RuntimeConfigError, SlicingError
from repro.kernelc.codegen import ExecutionContext, KernelInterpreter
from repro.kernelc.compile import (
    affine_streams,
    resident_kinds_of,
    try_compile_kernel,
    vector_fn_names,
)
from repro.kernelc.ir import Kernel
from repro.kernelc.slicing import make_addrgen_kernel
from repro.kernelc.validate import validate_kernel
from repro.runtime.streaming import StreamingRegistry

#: records sampled to measure the kernel's access profile
PROFILE_SAMPLE = 32


@dataclass
class LaunchSpec:
    """Optional knobs for :func:`bigkernel_launch`."""

    #: arithmetic weight of one opaque device-function call
    call_ops: float = 20.0
    #: warp-divergence factor (see AccessProfile.gpu_divergence)
    gpu_divergence: float = 4.0
    #: CPU ops per GPU op for the scalar baselines
    cpu_ops_factor: float = 2.0
    #: extract the user-facing output after the run
    make_output: Optional[Callable[[ExecutionContext], Any]] = None


class KernelApplication(Application):
    """An Application derived from a kernel by compilation + measurement."""

    writes_mapped = False

    def __init__(
        self,
        kernel: Kernel,
        registry: StreamingRegistry,
        resident: Optional[dict] = None,
        params: Optional[dict] = None,
        device_fns: Optional[dict] = None,
        spec: Optional[LaunchSpec] = None,
    ):
        validate_kernel(kernel)
        if len(kernel.mapped) != 1:
            raise RuntimeConfigError(
                "the launch front end streams exactly one mapped structure; "
                f"kernel {kernel.name!r} maps {sorted(kernel.mapped)}"
            )
        self.kernel_ir = kernel
        self.registry = registry
        self.resident_init = dict(resident or {})
        self.params_init = dict(params or {})
        self.device_fns = dict(device_fns or {})
        self.spec = spec or LaunchSpec()
        # lazy caches: False = not yet resolved (None is a valid verdict)
        self._compiled_main: Any = False
        self._compiled_ag: Any = False
        self._affine: Any = False

        (self.primary_name,) = kernel.mapped
        self.schema = kernel.mapped[self.primary_name]
        array = registry.get(self.primary_name)
        if array.schema.record_size != self.schema.record_size:
            raise RuntimeConfigError(
                "mapped schema in the kernel does not match the streamed array"
            )
        self.name = f"launch_{kernel.name}"
        self.display_name = f"launch:{kernel.name}"
        self.writes_mapped = array.writable

        self._data = AppData(
            app=self.name,
            mapped={self.primary_name: array.host},
            schemas={self.primary_name: self.schema},
            resident={k: v for k, v in self.resident_init.items()},
            params=dict(self.params_init),
            primary=self.primary_name,
        )
        self._measured: Optional[AccessProfile] = None

    # ------------------------------------------------------------- data
    @property
    def data(self) -> AppData:
        """The AppData bound to the streamed host array."""
        return self._data

    def generate(self, n_bytes: Optional[int] = None, seed: int = 0) -> AppData:
        """The data is supplied by the registry, not generated."""
        return self._data

    # --------------------------------------------------------- execution
    def _make_ctx(self, data: AppData) -> ExecutionContext:
        return ExecutionContext(
            mapped={self.primary_name: data.mapped[self.primary_name]},
            resident=data.resident,
            params=dict(data.params),
            device_fns=self.device_fns,
        )

    def make_state(self, data: AppData) -> Any:
        return {"ctx": self._make_ctx(data)}

    def start_pass(self, data: AppData, state: Any, pass_idx: int) -> None:
        if "pass_idx" in self.kernel_ir.params:
            state["ctx"].params["pass_idx"] = pass_idx

    # ------------------------------------------------- vectorized backend
    def _vector_gate(self) -> tuple:
        return (
            vector_fn_names(self.device_fns),
            resident_kinds_of(self.resident_init),
        )

    def compiled_kernel(self):
        """The vectorized executor for the original-form kernel, or None
        when the vectorizability analysis rejects it and execution falls
        back to the interpreter."""
        if self._compiled_main is False:
            vfns, rkinds = self._vector_gate()
            self._compiled_main = try_compile_kernel(
                self.kernel_ir, vector_fns=vfns, resident_kinds=rkinds
            )
        return self._compiled_main

    def _compiled_addrgen(self):
        """Best-effort vectorized executor for the addr-gen slice."""
        if self._compiled_ag is False:
            try:
                ag_kernel = make_addrgen_kernel(self.kernel_ir)
            except SlicingError:
                ag_kernel = None
            if ag_kernel is None:
                self._compiled_ag = None
            else:
                vfns, rkinds = self._vector_gate()
                self._compiled_ag = try_compile_kernel(
                    ag_kernel, vector_fns=vfns, resident_kinds=rkinds
                )
        return self._compiled_ag

    def _affine_streams(self):
        """Closed-form address streams of the addr-gen slice, if affine."""
        if self._affine is False:
            try:
                ag_kernel = make_addrgen_kernel(self.kernel_ir)
            except SlicingError:
                self._affine = None
            else:
                self._affine = affine_streams(ag_kernel)
        return self._affine

    def process_chunk(self, data: AppData, state: Any, lo: int, hi: int) -> None:
        compiled = self.compiled_kernel()
        if compiled is not None:
            compiled.run_range(state["ctx"], lo, hi)
            return
        interp = KernelInterpreter(self.kernel_ir, state["ctx"])
        interp.run_thread(0, lo, hi)

    def finalize(self, data: AppData, state: Any) -> Any:
        if self.spec.make_output is not None:
            return self.spec.make_output(state["ctx"])
        return state["ctx"].resident

    def outputs_equal(self, a: Any, b: Any) -> bool:
        if isinstance(a, dict) and isinstance(b, dict):
            return set(a) == set(b) and all(
                np.allclose(a[k], b[k], rtol=0, atol=1e-9) for k in a
            )
        if isinstance(a, np.ndarray):
            return bool(np.allclose(a, b, rtol=0, atol=1e-9))
        return bool(a == b)

    # ---------------------------------------------------- characterization
    def _measure(self) -> AccessProfile:
        """Run the addr-gen slice (or original) over a sample and derive
        the access profile the cost models need."""
        if self._measured is not None:
            return self._measured
        data = self._data
        n = min(PROFILE_SAMPLE, data.n_records)
        # fresh context so measurement does not disturb user state
        ctx = ExecutionContext(
            mapped={self.primary_name: data.mapped[self.primary_name]},
            resident={
                k: np.copy(v) if isinstance(v, np.ndarray) else v
                for k, v in data.resident.items()
            },
            params=dict(data.params),
            device_fns=self.device_fns,
        )
        if "pass_idx" in self.kernel_ir.params:
            ctx.params["pass_idx"] = 0

        try:
            ag_kernel = make_addrgen_kernel(self.kernel_ir)
            sliceable = True
        except SlicingError:
            ag_kernel = None
            sliceable = False

        compiled = self.compiled_kernel()
        if compiled is not None:
            stats = compiled.run_range(ctx, 0, n).stats
        else:
            interp = KernelInterpreter(self.kernel_ir, ctx)
            interp.run_thread(0, 0, n)
            stats = interp.stats

        if ag_kernel is not None:
            compiled_ag = self._compiled_addrgen()
            if compiled_ag is not None:
                records = compiled_ag.run_range(ctx, 0, n).read_records()
            else:
                ag = KernelInterpreter(ag_kernel, ctx)
                ag.run_thread(0, 0, n)
                records = ag.read_addresses
            offsets = np.asarray([r.offset for r in records], dtype=np.int64)
            sizes = np.asarray([r.nbytes for r in records], dtype=np.int64)
            spans = _contiguous_spans(offsets, sizes)
        else:
            spans = max(1, stats.n_mapped_reads // max(n, 1))

        reads_per = stats.n_mapped_reads / max(n, 1)
        read_bytes_per = stats.mapped_read_bytes / max(n, 1)
        writes_per = stats.n_mapped_writes / max(n, 1)
        write_bytes_per = stats.mapped_write_bytes / max(n, 1)
        elem = int(round(read_bytes_per / reads_per)) if reads_per else 1
        gpu_ops = (
            stats.n_ops + stats.n_calls * self.spec.call_ops
        ) / max(n, 1)

        self._measured = AccessProfile(
            record_bytes=self.schema.record_size,
            read_bytes_per_record=read_bytes_per,
            write_bytes_per_record=write_bytes_per,
            reads_per_record=reads_per,
            writes_per_record=writes_per,
            elem_bytes=max(elem, 1),
            gpu_ops_per_record=max(gpu_ops, 1.0),
            cpu_ops_per_record=max(gpu_ops * self.spec.cpu_ops_factor, 1.0),
            resident_bytes_per_record=8.0
            * stats.n_resident_accesses
            / max(n, 1)
            * 0.25,  # mostly cache-resident
            pattern_friendly=True,
            sliceable=sliceable,
            passes=2 if "pass_idx" in self.kernel_ir.params else 1,
            gather_granularity_bytes=float(
                read_bytes_per / spans if spans else elem
            ),
            addresses_per_record=float(spans),
            gpu_divergence=self.spec.gpu_divergence,
        )
        return self._measured

    @property
    def n_passes(self) -> int:  # type: ignore[override]
        return 2 if "pass_idx" in self.kernel_ir.params else 1

    def access_profile(self, data: AppData) -> AccessProfile:
        return self._measure()

    def _stream_offsets(self, data: AppData, lo: int, hi: int,
                        is_write: bool) -> Optional[np.ndarray]:
        """Address stream via the fastest available route: closed-form
        affine expansion, then the compiled addr-gen slice, then None
        (caller falls back to the interpreter)."""
        aff = self._affine_streams()
        if aff is not None:
            stream = aff[1] if is_write else aff[0]
            if stream is not None:
                return stream.expand(lo, hi)
        compiled_ag = self._compiled_addrgen()
        if compiled_ag is not None:
            ctx = self._make_ctx(data)
            if "pass_idx" in self.kernel_ir.params:
                ctx.params["pass_idx"] = 0
            run = compiled_ag.run_range(ctx, lo, hi)
            return run.write_offsets() if is_write else run.read_offsets()
        return None

    def chunk_read_offsets(self, data: AppData, lo: int, hi: int) -> np.ndarray:
        """The sliced kernel's own address stream for ``[lo, hi)`` (or a
        whole-range byte walk for unsliceable kernels)."""
        try:
            ag_kernel = make_addrgen_kernel(self.kernel_ir)
        except SlicingError:
            rec = self.schema.record_size
            return np.arange(lo * rec, hi * rec, dtype=np.int64)
        fast = self._stream_offsets(data, lo, hi, is_write=False)
        if fast is not None:
            return fast
        ctx = self._make_ctx(data)
        if "pass_idx" in self.kernel_ir.params:
            ctx.params["pass_idx"] = 0
        ag = KernelInterpreter(ag_kernel, ctx)
        ag.run_thread(0, lo, hi)
        return np.asarray([r.offset for r in ag.read_addresses], dtype=np.int64)

    def chunk_write_offsets(self, data: AppData, lo: int, hi: int) -> np.ndarray:
        try:
            ag_kernel = make_addrgen_kernel(self.kernel_ir)
        except SlicingError:
            return np.empty(0, dtype=np.int64)
        fast = self._stream_offsets(data, lo, hi, is_write=True)
        if fast is not None:
            return fast
        ctx = self._make_ctx(data)
        if "pass_idx" in self.kernel_ir.params:
            ctx.params["pass_idx"] = 0
        ag = KernelInterpreter(ag_kernel, ctx)
        ag.run_thread(0, lo, hi)
        return np.asarray([r.offset for r in ag.write_addresses], dtype=np.int64)

    # ------------------------------------------------------- compiler path
    def kernel(self) -> Kernel:
        return self.kernel_ir

    def make_ir_context(self, data: AppData) -> ExecutionContext:
        return self._make_ctx(data)

    def ir_output(self, data: AppData, ctx: ExecutionContext) -> Any:
        if self.spec.make_output is not None:
            return self.spec.make_output(ctx)
        return ctx.resident


def _contiguous_spans(offsets: np.ndarray, sizes: np.ndarray) -> float:
    """Average number of contiguous runs per record in the address stream."""
    if offsets.size == 0:
        return 1.0
    spans = 1
    for i in range(1, offsets.size):
        if offsets[i] != offsets[i - 1] + sizes[i - 1]:
            spans += 1
    return max(spans / max(PROFILE_SAMPLE, 1), 1.0 / PROFILE_SAMPLE)


def bigkernel_launch(
    kernel: Kernel,
    registry: StreamingRegistry,
    resident: Optional[dict] = None,
    params: Optional[dict] = None,
    device_fns: Optional[dict] = None,
    config: Optional[EngineConfig] = None,
    spec: Optional[LaunchSpec] = None,
    engine: Optional[BigKernelEngine] = None,
    verify: bool = False,
) -> RunResult:
    """Compile, characterize, and run ``kernel`` over the mapped data.

    Returns the engine's :class:`RunResult`: functional output (the
    resident state, or ``spec.make_output``'s extraction) plus the
    simulated time, metrics and pipeline trace. The kernel runs on the
    compiled (vectorized) backend when the vectorizability analysis admits
    it, and on the tree-walking interpreter otherwise.

    With ``verify=True`` the launch is double-checked after the run: the
    run is graded against a serial-oracle execution of the same kernel by
    :func:`repro.verify.differential.grade` (output diffed, pipeline
    timeline through the trace invariant checkers), and the mapped
    write-back is compared byte for byte; a
    :class:`~repro.errors.VerificationError` is raised on any divergence.
    """
    cfg = config or EngineConfig()
    app = KernelApplication(kernel, registry, resident, params, device_fns, spec)
    eng = engine or BigKernelEngine()
    if not verify:
        return eng.run(app, app.data, cfg)

    from repro.engines.cpu_serial import CpuSerialEngine
    from repro.errors import VerificationError
    from repro.verify.differential import grade

    # the interpreter mutates the mapped/resident arrays in place, so the
    # oracle must replay from the pre-launch state and the engine's final
    # state must win afterwards
    pre = _snapshot_state(app)
    result = eng.run(app, app.data, cfg)
    post = _snapshot_state(app)
    _restore_state(app, pre)
    oracle = CpuSerialEngine().run(app, app.data, cfg)
    oracle_post = _snapshot_state(app)
    _restore_state(app, post)
    cell = grade(app, eng.name, oracle, result, cfg, audit=True)
    if not cell.ok:
        raise VerificationError(
            f"launch of {kernel.name!r} on {eng.name}: {cell.detail}"
        )
    if not np.array_equal(
        post[0].view(np.uint8), oracle_post[0].view(np.uint8)
    ):
        raise VerificationError(
            f"launch of {kernel.name!r}: mapped write-back diverged from "
            f"the serial oracle"
        )
    return result


def _snapshot_state(app: KernelApplication) -> tuple:
    """Copy of the launch's mutable state (mapped bytes + resident)."""
    data = app.data
    return (
        data.mapped[app.primary_name].copy(),
        {
            k: np.copy(v) if isinstance(v, np.ndarray) else v
            for k, v in data.resident.items()
        },
    )


def _restore_state(app: KernelApplication, snapshot: tuple) -> None:
    data = app.data
    host, resident = snapshot
    np.copyto(data.mapped[app.primary_name], host)
    for k, v in resident.items():
        if isinstance(v, np.ndarray):
            np.copyto(data.resident[k], v)
        else:
            data.resident[k] = v
