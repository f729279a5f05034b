"""The vectorized kernel backend against the tree-walking oracle.

Every test here compares `repro.kernelc.compile` with `KernelInterpreter`
on the same data: outputs and resident state at bit level, InterpStats
counters and emitted address streams integer-exact. The interpreter is
the specification; the compiled backend has no semantics of its own.
"""

import numpy as np
import pytest

from repro.apps import ALL_APPS, get_app
from repro.errors import BufferOverrun, VectorizationError
from repro.kernelc.analysis import analyze_vectorizable
from repro.kernelc.codegen import ExecutionContext, InterpStats, KernelInterpreter
from repro.kernelc.compile import (
    affine_streams,
    compile_kernel,
    resident_kinds_of,
    try_compile_kernel,
    vector_fn_names,
)
from repro.kernelc.ir import (
    Assign,
    AtomicAdd,
    BinOp,
    Break,
    Const,
    EmitAddress,
    For,
    If,
    Kernel,
    Load,
    MappedRef,
    Param,
    RecordSchema,
    ResidentLoad,
    ResidentStore,
    Store,
    UnOp,
    Var,
    While,
)
from repro.kernelc.slicing import make_addrgen_kernel
from repro.kernelc.transform import make_databuf_kernel

SCHEMA = RecordSchema.packed(
    [("a", "f8"), ("b", "i4"), ("c", "i4"), ("d", "f8")], record_size=32
)
N = 24

STAT_FIELDS = (
    "n_ops",
    "n_calls",
    "n_mapped_reads",
    "n_mapped_writes",
    "n_resident_accesses",
    "mapped_read_bytes",
    "mapped_write_bytes",
)


def make_ctx(seed: int = 0) -> ExecutionContext:
    rng = np.random.default_rng(seed)
    arr = np.zeros(N, dtype=SCHEMA.numpy_dtype())
    arr["a"] = rng.uniform(-5, 5, N)
    arr["b"] = rng.integers(-100, 100, N)
    arr["c"] = rng.integers(-100, 100, N)
    arr["d"] = rng.uniform(-5, 5, N)
    return ExecutionContext(
        mapped={"arr": arr},
        resident={"acc": np.zeros(8, dtype=np.float64),
                  "tab": np.zeros(16, dtype=np.int64)},
        params={"k": 3, "flip": 0},
    )


def kernel_of(body, params=("k", "flip")) -> Kernel:
    return Kernel(
        "t", body, mapped={"arr": SCHEMA}, resident=("acc", "tab"),
        params=params,
    )


def assert_equivalent(kernel, lo=0, hi=N, seed=0, params=None):
    """Interpreter vs compiled: resident, mapped bytes, stats."""
    ctx_i, ctx_c = make_ctx(seed), make_ctx(seed)
    if params:
        ctx_i.params.update(params)
        ctx_c.params.update(params)
    interp = KernelInterpreter(kernel, ctx_i)
    interp.run_thread(0, lo, hi)
    compiled = compile_kernel(
        kernel, resident_kinds=resident_kinds_of(ctx_c.resident)
    )
    run = compiled.run_range(ctx_c, lo, hi)
    np.testing.assert_array_equal(
        ctx_i.resident["acc"], ctx_c.resident["acc"]
    )
    np.testing.assert_array_equal(
        ctx_i.resident["tab"], ctx_c.resident["tab"]
    )
    np.testing.assert_array_equal(
        ctx_i.mapped["arr"].view(np.uint8), ctx_c.mapped["arr"].view(np.uint8)
    )
    for f in STAT_FIELDS:
        assert getattr(run.stats, f) == getattr(interp.stats, f), f
    return run


def ref(field, idx=None):
    return MappedRef("arr", idx if idx is not None else Var("i"), field)


class TestExpressionLowering:
    def test_arithmetic_and_comparisons(self):
        body = (
            For("i", Var("start"), Var("end"), (
                Assign("x", Load(ref("a"))),
                Assign("y", Load(ref("b"))),
                Assign("s", BinOp("+", BinOp("*", Var("x"), Const(2.0)),
                                 BinOp("-", Var("y"), Const(1)))),
                Assign("q", BinOp("//", Var("y"), Const(7))),
                Assign("r", BinOp("%", Var("y"), Const(5))),
                Assign("g", BinOp(">", Var("s"), Const(0.0))),
                AtomicAdd("acc", BinOp("%", Var("i"), Const(8)),
                          BinOp("+", Var("q"), Var("r"))),
                Store(ref("c"), BinOp("%", Var("q"), Const(1000))),
            )),
        )
        assert_equivalent(kernel_of(body))

    def test_floor_division_and_modulo_negative_operands(self):
        # Python floor semantics must survive vectorization
        body = (
            For("i", Var("start"), Var("end"), (
                Assign("y", Load(ref("b"))),
                AtomicAdd("tab", Const(0), BinOp("//", Var("y"), Const(-3))),
                AtomicAdd("tab", Const(1), BinOp("%", Var("y"), Const(-3))),
            )),
        )
        assert_equivalent(kernel_of(body))

    def test_min_max_and_eager_logic(self):
        body = (
            For("i", Var("start"), Var("end"), (
                Assign("x", Load(ref("a"))),
                Assign("y", Load(ref("d"))),
                Assign("m", BinOp("min", Var("x"), Var("y"))),
                Assign("M", BinOp("max", Var("x"), Const(0.0))),
                Assign("both", BinOp("and", BinOp(">", Var("x"), Const(0)),
                                     BinOp("<", Var("y"), Const(0)))),
                Assign("either", BinOp("or", Var("both"),
                                       UnOp("not", BinOp(">", Var("m"),
                                                         Const(-1.0))))),
                If(Var("either"),
                   (Assign("out", Var("M")),),
                   (Assign("out", Var("m")),)),
                AtomicAdd("acc", Const(2), Var("out")),
            )),
        )
        assert_equivalent(kernel_of(body))

    def test_unary_negation(self):
        body = (
            For("i", Var("start"), Var("end"), (
                Assign("x", Load(ref("a"))),
                AtomicAdd("acc", Const(0), UnOp("-", Var("x"))),
            )),
        )
        assert_equivalent(kernel_of(body))


class TestControlFlow:
    def test_masked_if_with_merge(self):
        body = (
            For("i", Var("start"), Var("end"), (
                Assign("x", Load(ref("a"))),
                Assign("v", Const(0.0)),
                If(BinOp(">", Var("x"), Const(0.0)),
                   (Assign("v", BinOp("*", Var("x"), Const(3.0))),),
                   (Assign("v", BinOp("-", Const(0.0), Var("x"))),)),
                AtomicAdd("acc", BinOp("%", Var("i"), Const(8)), Var("v")),
            )),
        )
        assert_equivalent(kernel_of(body))

    def test_nested_masked_ifs(self):
        body = (
            For("i", Var("start"), Var("end"), (
                Assign("x", Load(ref("a"))),
                Assign("y", Load(ref("b"))),
                Assign("v", Const(0.0)),
                If(BinOp(">", Var("x"), Const(0.0)),
                   (If(BinOp(">", Var("y"), Const(0)),
                       (Assign("v", BinOp("+", Var("x"), Var("y"))),),
                       (Assign("v", Var("x")),)),),
                   (If(BinOp("<", Var("y"), Const(-50)),
                       (Assign("v", Const(7.0)),),
                       ()),)),
                AtomicAdd("acc", Const(0), Var("v")),
            )),
        )
        assert_equivalent(kernel_of(body))

    def test_then_only_branch_and_store_under_mask_rejected(self):
        # Store index must be the record var itself; under a mask the lane
        # set still addresses its own records, which remains legal
        body = (
            For("i", Var("start"), Var("end"), (
                Assign("y", Load(ref("b"))),
                If(BinOp(">", Var("y"), Const(0)),
                   (Store(ref("c"), BinOp("%", Var("y"), Const(97))),),
                   ()),
            )),
        )
        assert_equivalent(kernel_of(body))

    def test_uniform_param_if_takes_python_branch(self):
        body = (
            For("i", Var("start"), Var("end"), (
                Assign("y", Load(ref("b"))),
                If(BinOp("==", Param("flip"), Const(0)),
                   (AtomicAdd("tab", BinOp("%", Var("i"), Const(16)),
                              Const(1)),),
                   (AtomicAdd("tab", Const(0), BinOp("%", Var("y"),
                                                     Const(9))),)),
            )),
        )
        assert_equivalent(kernel_of(body), params={"flip": 0})
        assert_equivalent(kernel_of(body), params={"flip": 1})

    def test_inner_for_loop_carries_state_within_record(self):
        body = (
            For("i", Var("start"), Var("end"), (
                Assign("h", Const(0)),
                For("j", Const(0), Const(4), (
                    Assign("x", Load(ref("b", BinOp(
                        "%", BinOp("+", Var("i"), Var("j")), Const(N))))),
                    Assign("h", BinOp(
                        "%", BinOp("+", BinOp("*", Var("h"), Const(31)),
                                   Var("x")),
                        Const(1 << 30))),
                )),
                AtomicAdd("tab", BinOp("%", Var("h"), Const(16)), Const(1)),
            )),
        )
        assert_equivalent(kernel_of(body))

    def test_inner_for_with_param_bound(self):
        body = (
            For("i", Var("start"), Var("end"), (
                Assign("s", Const(0)),
                For("j", Const(0), Param("k"), (
                    Assign("s", BinOp("+", Var("s"), Var("j"))),
                )),
                AtomicAdd("tab", Const(0), Var("s")),
            )),
        )
        assert_equivalent(kernel_of(body), params={"k": 5})

    def test_sub_range_execution(self):
        body = (
            For("i", Var("start"), Var("end"), (
                Assign("y", Load(ref("b"))),
                AtomicAdd("tab", BinOp("%", Var("i"), Const(16)), Var("y")),
            )),
        )
        assert_equivalent(kernel_of(body), lo=5, hi=17)
        assert_equivalent(kernel_of(body), lo=7, hi=7)  # empty range

    def test_resident_load_and_store(self):
        # distinct arrays: same-array load+store is a cross-lane RAW hazard
        body = (
            For("i", Var("start"), Var("end"), (
                Assign("t", ResidentLoad("acc", BinOp("%", Var("i"),
                                                      Const(8)))),
                Assign("y", Load(ref("b"))),
                ResidentStore("tab", BinOp("%", Var("i"), Const(16)),
                              BinOp("+", Var("y"), Const(2))),
            )),
        )
        assert_equivalent(kernel_of(body))

    def test_resident_raw_hazard_rejected(self):
        body = (
            For("i", Var("start"), Var("end"), (
                Assign("t", ResidentLoad("tab", BinOp("%", Var("i"),
                                                      Const(16)))),
                ResidentStore("tab", BinOp("%", Var("i"), Const(16)),
                              BinOp("+", Var("t"), Const(2))),
            )),
        )
        report = analyze_vectorizable(
            kernel_of(body), resident_kinds={"acc": "f", "tab": "i"}
        )
        assert not report.ok
        assert any("RAW hazard" in r for r in report.reasons)


class TestFallbacks:
    def test_while_rejected(self):
        body = (
            For("i", Var("start"), Var("end"), (
                Assign("x", Load(ref("b"))),
                While(BinOp(">", Var("x"), Const(0)), (
                    Assign("x", BinOp("-", Var("x"), Const(1))),
                    Break(),
                )),
            )),
        )
        kernel = kernel_of(body)
        assert try_compile_kernel(kernel) is None
        with pytest.raises(VectorizationError):
            compile_kernel(kernel)

    def test_loop_carried_rejected_with_reason(self):
        body = (
            Assign("h", Const(0)),
            For("i", Var("start"), Var("end"), (
                Assign("h", BinOp("+", Var("h"), Load(ref("b")))),
            )),
        )
        report = analyze_vectorizable(kernel_of(body))
        assert not report.ok
        assert any("loop-carried" in r for r in report.reasons)

    def test_opaque_device_fn_rejected(self):
        body = (
            For("i", Var("start"), Var("end"), (
                Assign("x", Load(ref("a"))),
            )),
        )
        kernel = kernel_of(body)
        assert try_compile_kernel(kernel) is not None  # sanity
        # apps with loop-carried kernels declare the fallback
        assert get_app("wordcount").compiled_expected is False
        assert get_app("mastercard").compiled_expected is False
        wc = get_app("wordcount").kernel()
        assert try_compile_kernel(wc) is None


class TestAddressStreams:
    BODY = (
        For("i", Var("start"), Var("end"), (
            Assign("x", Load(ref("a"))),
            Assign("y", Load(ref("d"))),
            Store(ref("c"), Const(1)),
        )),
    )

    def test_addrgen_streams_match_interpreter(self):
        kernel = kernel_of(self.BODY)
        ag = make_addrgen_kernel(kernel)
        interp = KernelInterpreter(ag, make_ctx())
        interp.run_thread(0, 0, N)
        run = compile_kernel(ag).run_range(make_ctx(), 0, N)
        np.testing.assert_array_equal(
            run.read_offsets(),
            np.asarray([r.offset for r in interp.read_addresses]),
        )
        np.testing.assert_array_equal(
            run.write_offsets(),
            np.asarray([r.offset for r in interp.write_addresses]),
        )
        recs = run.read_records()
        assert [r.offset for r in recs] == [
            r.offset for r in interp.read_addresses
        ]
        assert [r.nbytes for r in recs] == [
            r.nbytes for r in interp.read_addresses
        ]

    def test_affine_closed_form(self):
        ag = make_addrgen_kernel(kernel_of(self.BODY))
        reads, writes = affine_streams(ag)
        assert reads is not None and writes is not None
        interp = KernelInterpreter(ag, make_ctx())
        interp.run_thread(0, 0, N)
        np.testing.assert_array_equal(
            reads.expand(0, N),
            np.asarray([r.offset for r in interp.read_addresses]),
        )
        np.testing.assert_array_equal(
            writes.expand(0, N),
            np.asarray([r.offset for r in interp.write_addresses]),
        )
        # closed-form sub-ranges need no rebasing arithmetic from callers
        np.testing.assert_array_equal(
            reads.expand(5, 11), reads.expand(0, N)[10:22]
        )

    def test_affine_pattern_feeds_recognizer_form(self):
        ag = make_addrgen_kernel(kernel_of(self.BODY))
        reads, _ = affine_streams(ag)
        pat = reads.pattern(lo=0)
        np.testing.assert_array_equal(pat.expand(2 * N), reads.expand(0, N))

    def test_masked_emit_reconstructs_record_major_order(self):
        body = (
            For("i", Var("start"), Var("end"), (
                Assign("y", Load(ref("b"))),
                If(BinOp(">", Var("y"), Const(0)),
                   (EmitAddress(ref("a")), EmitAddress(ref("d"))),
                   (EmitAddress(ref("d")),)),
            )),
        )
        kernel = kernel_of(body)
        interp = KernelInterpreter(kernel, make_ctx())
        interp.run_thread(0, 0, N)
        run = compile_kernel(kernel).run_range(make_ctx(), 0, N)
        np.testing.assert_array_equal(
            run.read_offsets(),
            np.asarray([r.offset for r in interp.read_addresses]),
        )
        assert affine_streams(kernel) is None  # emits under control flow


class TestDatabuf:
    BODY = (
        For("i", Var("start"), Var("end"), (
            Assign("x", Load(ref("a"))),
            Assign("y", Load(ref("b"))),
            AtomicAdd("acc", BinOp("%", Var("i"), Const(8)),
                      BinOp("+", Var("x"), Var("y"))),
            Store(ref("c"), BinOp("%", Var("y"), Const(50))),
        )),
    )

    def _gathered_values(self, kernel):
        ag = make_addrgen_kernel(kernel)
        interp = KernelInterpreter(ag, make_ctx())
        interp.run_thread(0, 0, N)
        view = make_ctx().mapped["arr"].view(np.uint8).reshape(-1)
        return [
            view[r.offset:r.offset + r.nbytes].view(r.dtype)[0]
            for r in interp.read_addresses
        ]

    def test_queue_mode_matches_interpreter(self):
        kernel = kernel_of(self.BODY)
        db = make_databuf_kernel(kernel)
        values = self._gathered_values(kernel)

        ctx_i = make_ctx()
        interp = KernelInterpreter(db, ctx_i)
        interp.load_data(list(values))
        interp.run_thread(0, 0, N)

        ctx_c = make_ctx()
        compiled = compile_kernel(
            db, resident_kinds={"acc": "f", "tab": "i"},
            databuf_mode="queue",
        )
        run = compiled.run_range(ctx_c, 0, N, data_queue=list(values))

        np.testing.assert_array_equal(
            ctx_i.resident["acc"], ctx_c.resident["acc"]
        )
        for f in STAT_FIELDS:
            assert getattr(run.stats, f) == getattr(interp.stats, f), f
        iq = [(r.offset, v) for r, v in interp.write_queue]
        cq = [(r.offset, v) for r, v in run.write_queue()]
        assert [o for o, _ in iq] == [o for o, _ in cq]
        np.testing.assert_allclose(
            np.asarray([v for _, v in iq], dtype=np.float64),
            np.asarray([v for _, v in cq], dtype=np.float64),
            rtol=0, atol=0,
        )

    def test_window_mode_matches_interpreter(self):
        kernel = kernel_of(self.BODY)
        db = make_databuf_kernel(kernel)
        window = make_ctx().mapped["arr"].view(np.uint8).reshape(-1).copy()

        ctx_i = make_ctx()
        interp = KernelInterpreter(db, ctx_i)
        interp.fallback_windows["arr"] = (0, window.copy())
        interp.run_thread(0, 0, N)

        ctx_c = make_ctx()
        compiled = compile_kernel(
            db, resident_kinds={"acc": "f", "tab": "i"},
            databuf_mode="window",
        )
        run = compiled.run_range(
            ctx_c, 0, N, fallback_windows={"arr": (0, window.copy())}
        )
        np.testing.assert_array_equal(
            ctx_i.resident["acc"], ctx_c.resident["acc"]
        )
        for f in STAT_FIELDS:
            assert getattr(run.stats, f) == getattr(interp.stats, f), f

    def test_window_overrun_raises(self):
        kernel = kernel_of(self.BODY)
        db = make_databuf_kernel(kernel)
        compiled = compile_kernel(
            db, resident_kinds={"acc": "f", "tab": "i"},
            databuf_mode="window",
        )
        short = make_ctx().mapped["arr"].view(np.uint8).reshape(-1)[:64]
        with pytest.raises(BufferOverrun):
            compiled.run_range(
                make_ctx(), 0, N,
                fallback_windows={"arr": (0, short.copy())},
            )


class TestAppEquivalence:
    @pytest.mark.parametrize("cls", ALL_APPS, ids=lambda c: c.name)
    def test_apps_compile_or_fall_back_as_declared(self, cls):
        app = cls()
        data = app.generate(n_bytes=64 * 1024, seed=11)
        kernel = app.kernel()
        ctx = app.make_ir_context(data)
        report = analyze_vectorizable(
            kernel,
            vector_fns=vector_fn_names(ctx.device_fns),
            resident_kinds=resident_kinds_of(ctx.resident),
        )
        assert report.ok == app.compiled_expected, report.reasons

    def test_mastercard_indexed_both_passes(self):
        app = get_app("mastercard_indexed")
        data = app.generate(n_bytes=64 * 1024, seed=11)
        n = app.n_units(data)
        kernel = app.kernel()
        ctx_i, ctx_c = app.make_ir_context(data), app.make_ir_context(data)
        compiled = compile_kernel(
            kernel, resident_kinds=resident_kinds_of(ctx_c.resident)
        )
        interp = KernelInterpreter(kernel, ctx_i)
        stats = InterpStats()
        for p in (0, 1):
            ctx_i.params["pass_idx"] = p
            ctx_c.params["pass_idx"] = p
            interp.run_thread(0, 0, n)
            run = compiled.run_range(ctx_c, 0, n)
            for f in STAT_FIELDS:
                setattr(stats, f, getattr(stats, f) + getattr(run.stats, f))
        np.testing.assert_array_equal(
            app.ir_output(data, ctx_i), app.ir_output(data, ctx_c)
        )
        np.testing.assert_array_equal(
            ctx_i.resident["customers"], ctx_c.resident["customers"]
        )
        for f in STAT_FIELDS:
            assert getattr(stats, f) == getattr(interp.stats, f), f


class TestEngineWiring:
    def _double_it(self):
        """A writable mapped structure and a kernel the analysis admits."""
        from repro.runtime.streaming import StreamingRegistry

        schema = RecordSchema.packed([("v", "i8"), ("out", "i8")])
        n = 4096
        host = np.zeros(n, dtype=schema.numpy_dtype())
        host["v"] = np.arange(n) % 97
        registry = StreamingRegistry()
        registry.streaming_malloc("pts", host.nbytes)
        registry.streaming_map("pts", host, schema, writable=True)
        kernel = Kernel(
            "double_it",
            (
                For("i", Var("start"), Var("end"), (
                    Assign("v", Load(MappedRef("pts", Var("i"), "v"))),
                    Store(MappedRef("pts", Var("i"), "out"),
                          BinOp("*", Var("v"), Const(2))),
                    AtomicAdd("total", Const(0), Var("v")),
                )),
            ),
            mapped={"pts": schema},
            resident=("total",),
        )
        return host, registry, kernel

    def test_launch_compiled_matches_interp(self):
        from repro.runtime.launcher import KernelApplication, bigkernel_launch

        host, registry, kernel = self._double_it()
        oracle = ExecutionContext(
            mapped={"pts": host.copy()},
            resident={"total": np.zeros(1, dtype=np.int64)},
        )
        app = KernelApplication(
            kernel, registry, resident={"total": np.zeros(1, dtype=np.int64)}
        )
        assert app.compiled_kernel() is not None  # the launch compiles it
        res = bigkernel_launch(
            kernel, registry, resident={"total": np.zeros(1, dtype=np.int64)}
        )
        KernelInterpreter(kernel, oracle).run_thread(0, 0, len(host))
        np.testing.assert_array_equal(host["out"], oracle.mapped["pts"]["out"])
        np.testing.assert_array_equal(
            res.output["total"], oracle.resident["total"]
        )

    def test_launch_falls_back_to_interpreter(self):
        from repro.runtime.launcher import KernelApplication
        from repro.runtime.streaming import StreamingRegistry

        schema = RecordSchema.packed([("v", "i8")])
        host = np.zeros(8, dtype=schema.numpy_dtype())
        registry = StreamingRegistry()
        registry.streaming_malloc("pts", host.nbytes)
        registry.streaming_map("pts", host, schema)
        kernel = Kernel(
            "carried",
            (
                Assign("s", Const(0)),
                For("i", Var("start"), Var("end"), (
                    Assign("s", BinOp(
                        "+", Var("s"),
                        Load(MappedRef("pts", Var("i"), "v")))),
                    AtomicAdd("acc", Const(0), Var("s")),
                )),
            ),
            mapped={"pts": schema},
            resident=("acc",),
        )
        app = KernelApplication(
            kernel, registry, resident={"acc": np.zeros(1, dtype=np.int64)}
        )
        # loop-carried state: the analysis rejects it, so the launch runs
        # the interpreter instead of raising
        assert app.compiled_kernel() is None

    def test_launch_interprets_unvectorizable_kernel(self):
        """A data-dependent While in the record body keeps the kernel off
        the compiled backend; the launch still matches a direct
        interpreter run."""
        from repro.runtime.launcher import KernelApplication, bigkernel_launch
        from repro.runtime.streaming import StreamingRegistry

        schema = RecordSchema.packed([("v", "i8")])
        n = 4096
        host = np.zeros(n, dtype=schema.numpy_dtype())
        host["v"] = np.arange(n) * 37 % 1001
        registry = StreamingRegistry()
        registry.streaming_malloc("pts", host.nbytes)
        registry.streaming_map("pts", host, schema)
        kernel = Kernel(
            "bit_lengths",
            (
                For("i", Var("start"), Var("end"), (
                    Assign("v", Load(MappedRef("pts", Var("i"), "v"))),
                    Assign("c", Const(0)),
                    While(BinOp(">", Var("v"), Const(0)), (
                        Assign("v", BinOp(">>", Var("v"), Const(1))),
                        Assign("c", BinOp("+", Var("c"), Const(1))),
                    )),
                    AtomicAdd("bits", Const(0), Var("c")),
                )),
            ),
            mapped={"pts": schema},
            resident=("bits",),
        )
        app = KernelApplication(
            kernel, registry, resident={"bits": np.zeros(1, dtype=np.int64)}
        )
        assert app.compiled_kernel() is None
        oracle = ExecutionContext(
            mapped={"pts": host.copy()},
            resident={"bits": np.zeros(1, dtype=np.int64)},
        )
        KernelInterpreter(kernel, oracle).run_thread(0, 0, n)
        res = bigkernel_launch(
            kernel, registry, resident={"bits": np.zeros(1, dtype=np.int64)}
        )
        expected = sum(int(v).bit_length() for v in host["v"])
        assert oracle.resident["bits"][0] == expected
        np.testing.assert_array_equal(
            res.output["bits"], oracle.resident["bits"]
        )
