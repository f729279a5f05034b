"""Tests for the ASCII Gantt renderer and failure behaviour of pipeline
processes."""

import pytest

from repro.bench.report import render_gantt
from repro.hw.spec import DEFAULT_HARDWARE
from repro.runtime.pipeline import ChunkWork, run_pipeline
from repro.sim import Environment, Resource, Store, TraceRecorder
from repro.units import MiB


class TestGantt:
    def make_trace(self):
        tr = TraceRecorder()
        tr.record("gpu", "compute", 0.0, 0.5)
        tr.record("gpu", "compute", 0.6, 1.0)
        tr.record("pcie", "xfer", 0.25, 0.75)
        return tr

    def test_rows_and_span(self):
        text = render_gantt(self.make_trace(), width=40)
        lines = text.splitlines()
        assert len(lines) == 3  # header + 2 rows
        assert "gpu:compute" in lines[1]
        assert "pcie:xfer" in lines[2]
        assert "1.000 s" in lines[0]

    def test_bars_positioned(self):
        text = render_gantt(self.make_trace(), width=40)
        gpu_row = next(l for l in text.splitlines() if "gpu:compute" in l)
        bars = gpu_row.split("|")[1]
        # activity at the start, a gap in the middle-ish, activity at the end
        assert bars[0] == "#"
        assert bars[-1] == "#"
        assert " " in bars

    def test_empty_trace(self):
        assert render_gantt(TraceRecorder()) == "(empty trace)"

    def test_track_filter(self):
        text = render_gantt(self.make_trace(), tracks=["pcie"])
        assert "gpu" not in text and "pcie:xfer" in text

    def test_real_pipeline_gantt_renders(self):
        chunks = [
            ChunkWork(i, 1e-4, 0, 2e-4, 1 * MiB, 3e-4) for i in range(4)
        ]
        res = run_pipeline(DEFAULT_HARDWARE, chunks)
        text = render_gantt(res.trace)
        assert "gpu:compute" in text and "pcie-h2d:data_transfer" in text


class TestFailurePropagation:
    def test_stage_exception_surfaces_from_run(self):
        """A crashing simulated stage fails the run loudly, not silently."""
        env = Environment()
        res = Resource(env, capacity=1)

        def crasher(env):
            with res.request() as req:
                yield req
                yield env.timeout(1.0)
                raise RuntimeError("stage died")

        env.process(crasher(env))
        with pytest.raises(RuntimeError, match="stage died"):
            env.run()

    def test_crashed_holder_releases_resource(self):
        env = Environment()
        res = Resource(env, capacity=1)
        acquired = []

        def crasher(env):
            with res.request() as req:
                yield req
                raise RuntimeError("boom")

        def survivor(env, victim):
            try:
                yield victim
            except RuntimeError:
                pass
            with res.request() as req:
                yield req
                acquired.append(env.now)

        victim = env.process(crasher(env))
        env.process(survivor(env, victim))
        env.run()
        assert acquired  # the resource was not leaked by the crash

    def test_starved_consumer_never_finishes(self):
        """A consumer waiting on a store no producer will ever fill drains
        the queue and is left pending."""
        env = Environment()
        store = Store(env)

        def consumer(env):
            yield store.get()

        proc = env.process(consumer(env))
        env.run()
        assert not proc.triggered


class TestChromeTraceRetryTrack:
    def make_trace(self):
        tr = TraceRecorder()
        tr.record("pcie-h2d", "data_transfer", 0.0, 1.0, chunk=0, nbytes=100)
        tr.record("pcie-h2d", "data_transfer-retry", 1.0, 2.0,
                  chunk=1, retry=True, attempt=1, discarded=100)
        tr.record("pcie-h2d", "data_transfer", 2.0, 3.0, chunk=1, nbytes=100)
        return tr

    def test_retry_gets_dedicated_row(self):
        events = self.make_trace().to_chrome_trace()
        xs = [e for e in events if e["ph"] == "X"]
        retry = next(e for e in xs if e["name"].endswith("-retry"))
        normal = [e for e in xs if not e["name"].endswith("-retry")]
        assert all(e["tid"] != retry["tid"] for e in normal)
        # both successful transfers share the main track
        assert len({e["tid"] for e in normal}) == 1

    def test_retry_category_tag(self):
        events = self.make_trace().to_chrome_trace()
        xs = [e for e in events if e["ph"] == "X"]
        retry = next(e for e in xs if e["name"].endswith("-retry"))
        assert retry["cat"] == "retry"
        assert all("cat" not in e for e in xs if not e["name"].endswith("-retry"))

    def test_retry_row_named_in_metadata(self):
        events = self.make_trace().to_chrome_trace()
        metas = {e["name"]: e["tid"] for e in events if e["ph"] == "M"}
        assert "pcie-h2d:retry" in metas
        assert "pcie-h2d" in metas
        assert metas["pcie-h2d:retry"] != metas["pcie-h2d"]

    def test_retry_meta_flag_alone_is_enough(self):
        # the row split keys on either the meta flag or the label suffix
        tr = TraceRecorder()
        tr.record("pcie-d2h", "writeback", 0.0, 1.0, retry=True)
        events = tr.to_chrome_trace()
        x = next(e for e in events if e["ph"] == "X")
        assert x["cat"] == "retry"

    def test_pipeline_retry_reaches_chrome_trace(self):
        from repro.faults import FaultPlan
        from repro.runtime.pipeline import PipelineConfig

        chunks = [
            ChunkWork(i, 1e-4, 0, 2e-4, 1 * MiB, 3e-4) for i in range(4)
        ]
        plan = FaultPlan(name="retry").dma.error(chunk=2, retries=2)
        res = run_pipeline(
            DEFAULT_HARDWARE, chunks, PipelineConfig(), fastpath=False,
            faults=plan,
        )
        events = res.trace.to_chrome_trace()
        retries = [e for e in events
                   if e["ph"] == "X" and e.get("cat") == "retry"]
        assert len(retries) == 2
        assert all(e["args"]["chunk"] == 2 for e in retries)
        assert all("nbytes" not in e["args"] for e in retries)
