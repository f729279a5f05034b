"""Tests for the bigkernel_launch front end (kernel-in, result-out)."""

import numpy as np
import pytest

from repro.apps.kmeans import KMeansApp, PARTICLE
from repro.engines import (
    BigKernelEngine,
    CpuSerialEngine,
    EngineConfig,
    GpuDoubleBufferEngine,
)
from repro.errors import RuntimeConfigError
from repro.kernelc import (
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
    Var,
)
from repro.runtime import (
    KernelApplication,
    LaunchSpec,
    StreamingRegistry,
    bigkernel_launch,
)

CFG = EngineConfig(chunk_bytes=64 * 1024)


def kmeans_setup(n=2000, seed=2):
    src = KMeansApp()
    data = src.generate(48 * n, seed=seed)
    reg = StreamingRegistry()
    reg.streaming_malloc("particles", data.total_mapped_bytes)
    reg.streaming_map("particles", data.mapped["particles"], PARTICLE, writable=True)

    def find_closest(ctx, x, y, z):
        c = ctx.resident["clusters"]
        d = (c[:, 0] - x) ** 2 + (c[:, 1] - y) ** 2 + (c[:, 2] - z) ** 2
        return int(np.argmin(d))

    return src, data, reg, {"findClosestCluster": find_closest}


class TestKMeansLaunch:
    def test_output_matches_vectorized_app(self):
        src, data, reg, fns = kmeans_setup()
        expected = src.reference(src.generate(48 * 2000, seed=2))
        res = bigkernel_launch(
            src.kernel(),
            reg,
            resident={"clusters": data.resident["clusters"]},
            params=dict(data.params),
            device_fns=fns,
            config=CFG,
            spec=LaunchSpec(
                make_output=lambda ctx: ctx.mapped["particles"]["cid"].copy()
            ),
        )
        np.testing.assert_array_equal(res.output, expected)

    def test_measured_profile_matches_handwritten(self):
        """The measured profile agrees with KMeansApp's hand-written one on
        every load-bearing quantity."""
        src, data, reg, fns = kmeans_setup()
        app = KernelApplication(
            src.kernel(),
            reg,
            resident={"clusters": data.resident["clusters"]},
            params=dict(data.params),
            device_fns=fns,
        )
        measured = app.access_profile(app.data)
        hand = src.access_profile(data)
        assert measured.read_bytes_per_record == hand.read_bytes_per_record
        assert measured.write_bytes_per_record == hand.write_bytes_per_record
        assert measured.reads_per_record == hand.reads_per_record
        assert measured.elem_bytes == hand.elem_bytes
        assert measured.sliceable == hand.sliceable
        # xyz are one contiguous 24B span
        assert measured.addresses_per_record <= 3.5
        assert measured.gather_run_bytes >= 8.0

    def test_pattern_recognized_from_kernel_addresses(self):
        src, data, reg, fns = kmeans_setup()
        res = bigkernel_launch(
            src.kernel(),
            reg,
            resident={"clusters": data.resident["clusters"]},
            params=dict(data.params),
            device_fns=fns,
            config=CFG,
        )
        assert res.metrics.pattern_fraction == 1.0

    def test_runs_on_other_engines(self):
        """A KernelApplication is a full Application: baselines work too."""
        src, data, reg, fns = kmeans_setup(n=800)
        app = KernelApplication(
            src.kernel(),
            reg,
            resident={"clusters": data.resident["clusters"]},
            params=dict(data.params),
            device_fns=fns,
            spec=LaunchSpec(
                make_output=lambda ctx: ctx.mapped["particles"]["cid"].copy()
            ),
        )
        serial = CpuSerialEngine().run(app, app.data, CFG)
        # regenerate mapped state for the second engine (kmeans writes)
        src2, data2, reg2, fns2 = kmeans_setup(n=800)
        app2 = KernelApplication(
            src2.kernel(),
            reg2,
            resident={"clusters": data2.resident["clusters"]},
            params=dict(data2.params),
            device_fns=fns2,
            spec=LaunchSpec(
                make_output=lambda ctx: ctx.mapped["particles"]["cid"].copy()
            ),
        )
        double = GpuDoubleBufferEngine().run(app2, app2.data, CFG)
        assert app.outputs_equal(serial.output, double.output)


FILTER_SCHEMA = RecordSchema.packed(
    [("value", "f8"), ("tag", "i4"), ("aux", "i4"), ("pad", "f8")], record_size=24
)


def make_filter_kernel():
    """A user-written kernel never seen by the app layer: bucket-sum the
    values of positively tagged records."""
    ref = lambda f: MappedRef("events", Var("i"), f)
    return Kernel(
        "filterSum",
        (
            For(
                "i",
                Var("start"),
                Var("end"),
                (
                    Assign("v", Load(ref("value"))),
                    Assign("t", Load(ref("tag"))),
                    If(
                        BinOp(">", Var("t"), Const(0)),
                        (
                            AtomicAdd(
                                "buckets",
                                BinOp("%", Var("t"), Const(16)),
                                Var("v"),
                            ),
                        ),
                    ),
                ),
            ),
        ),
        mapped={"events": FILTER_SCHEMA},
        resident=("buckets",),
    )


class TestCustomKernelLaunch:
    def make_registry(self, n=3000, seed=9):
        rng = np.random.default_rng(seed)
        events = np.zeros(n, dtype=FILTER_SCHEMA.numpy_dtype())
        events["value"] = rng.uniform(0, 10, n)
        events["tag"] = rng.integers(-5, 40, n)
        reg = StreamingRegistry()
        reg.streaming_malloc("events", n * FILTER_SCHEMA.record_size)
        reg.streaming_map("events", events, FILTER_SCHEMA)
        return reg, events

    def expected(self, events):
        out = np.zeros(16)
        mask = events["tag"] > 0
        np.add.at(out, events["tag"][mask] % 16, events["value"][mask])
        return out

    def test_launch_matches_numpy(self):
        reg, events = self.make_registry()
        res = bigkernel_launch(
            make_filter_kernel(),
            reg,
            resident={"buckets": np.zeros(16)},
            config=CFG,
            spec=LaunchSpec(make_output=lambda ctx: ctx.resident["buckets"].copy()),
        )
        np.testing.assert_allclose(res.output, self.expected(events), atol=1e-9)

    def test_runs_accumulate_into_resident(self):
        # the launched pass adds into the caller's resident arrays, so it
        # is never memoized: a second run adds its sums again
        reg, events = self.make_registry()
        app = KernelApplication(
            make_filter_kernel(), reg, resident={"buckets": np.zeros(16)}
        )
        engine = BigKernelEngine()
        for _ in range(2):
            engine.run(app, app.data, CFG)
        np.testing.assert_allclose(
            app.data.resident["buckets"], 2 * self.expected(events), rtol=1e-12
        )

    def test_measured_profile(self):
        reg, events = self.make_registry()
        app = KernelApplication(
            make_filter_kernel(), reg, resident={"buckets": np.zeros(16)}
        )
        p = app.access_profile(app.data)
        assert p.read_bytes_per_record == 12.0  # value (8) + tag (4)
        assert p.read_fraction == pytest.approx(0.5)
        assert p.write_bytes_per_record == 0.0
        assert p.sliceable

    def test_volume_reduction_happens(self):
        reg, events = self.make_registry()
        res = bigkernel_launch(
            make_filter_kernel(),
            reg,
            resident={"buckets": np.zeros(16)},
            config=CFG,
        )
        # only value+tag (12 of 24 bytes) cross the link
        assert res.metrics.bytes_h2d < 0.6 * events.nbytes


class TestLaunchValidation:
    def test_unmapped_registry_rejected(self):
        reg = StreamingRegistry()
        with pytest.raises(RuntimeConfigError):
            bigkernel_launch(make_filter_kernel(), reg)

    def test_schema_mismatch_rejected(self):
        reg = StreamingRegistry()
        other = RecordSchema.packed([("x", "f8")])
        host = np.zeros(10, dtype=other.numpy_dtype())
        reg.streaming_malloc("events", host.nbytes)
        reg.streaming_map("events", host, other)
        with pytest.raises(RuntimeConfigError, match="schema"):
            bigkernel_launch(make_filter_kernel(), reg)

    def test_multi_mapped_kernel_rejected(self):
        k = Kernel(
            "two",
            (),
            mapped={"a": FILTER_SCHEMA, "b": FILTER_SCHEMA},
        )
        with pytest.raises(RuntimeConfigError, match="exactly one"):
            KernelApplication(k, StreamingRegistry())
