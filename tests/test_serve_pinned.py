"""Pinned server decisions: four backlogged replays on a step timer.

Each replay runs a seeded burst of the six paper apps on BigKernel and
unified memory against one server policy, on a :class:`StepTimer`, so
every window, batch, status, deadline, rejection, shed and pricer sample
repeats exactly. The digest covers each response's ``(req_id, status,
batch_id, dispatch, completion, deadline, result sim_time)`` and the
metrics summary, so any change to a decision the server makes, or to the
timer reads a replay's clock counts, changes it.
"""

import hashlib
from collections import Counter

import numpy as np
import pytest

from repro.serve import (
    DEFAULT_TENANTS,
    ServeConfig,
    Server,
    StepTimer,
    TraceSpec,
    generate_trace,
    serve_trace,
    with_slo,
)
from repro.units import KiB

APPS = ("wordcount", "dna", "kmeans", "netflix", "opinion", "mastercard")

#: name -> (server policy, SLO ms, arrivals/s, trace seconds, dataset
#: seeds, repeat probability, timer step, status counts, digest)
REPLAYS = {
    # cache off: queue-full rejections and coalescing only
    "nocache": (
        ServeConfig(cache=False, max_queue=32), None, 20000.0, 0.01, 2, 0.3, 1e-3,
        {"rejected": 157, "served": 38, "coalesced": 3},
        "50e3f4c3e4774a0cc44714a426fdcfe1e5f8efc8f92dcf659131e6093f86b4c6",
    ),
    # run cache on, a two-dataset pool: cache hits and dataset eviction
    "cached": (
        ServeConfig(cache=True, dataset_pool=2, max_queue=32), None, 20000.0,
        0.01, 3, 0.6, 1e-3,
        {"rejected": 162, "cached": 21, "served": 15, "coalesced": 5},
        "9aa64cb627f473ef237ff1f5dd700d5dec2d9265a97bc74b23b77c02d7b079a4",
    ),
    # EDF under 10 ms SLOs: priced admission, adaptive windows, sheds
    "edf_slo": (
        ServeConfig(scheduling="edf", adaptive_batch=True, max_queue=64), 10.0,
        5000.0, 0.04, 4, 0.3, 3e-4,
        {"shed": 129, "served": 35, "rejected": 18, "cached": 14, "coalesced": 2},
        "a4ca469b45f59cf0b7cd4b5e6e887137a3da9897be767c9c568456dd1abad563",
    ),
    # the deadline-blind FIFO baseline under 20 ms SLOs
    "fifo_slo": (
        ServeConfig(scheduling="fifo", max_queue=32), 20.0, 20000.0, 0.01, 4,
        0.3, 1e-3,
        {"rejected": 157, "served": 30, "cached": 8, "coalesced": 3},
        "9cbf28938552dc7daccc8885eafb2f3ddd3691aca1464bba79ccd51d72f0d65c",
    ),
}


def _replay(name: str):
    config, slo_ms, rate, duration, seeds, repeat_p, step, *_ = REPLAYS[name]
    tenants = with_slo(DEFAULT_TENANTS, slo_ms)
    spec = TraceSpec(
        seed=5, duration=duration, rate=rate, tenants=tenants, apps=APPS,
        engines=("bigkernel", "gpu_uvm"), data_bytes=64 * KiB,
        n_dataset_seeds=seeds, chunk_kib_choices=(16, 32), repeat_p=repeat_p,
    )
    with Server(config, tenants=tenants) as server:
        return serve_trace(server, generate_trace(spec), timer=StepTimer(step))


def _digest(outcome) -> str:
    digest = hashlib.sha256()
    for r in outcome.responses:
        sim = None if r.result is None else r.result.sim_time
        digest.update(repr((
            r.req_id, r.status, r.batch_id, r.dispatch, r.completion,
            r.deadline, sim,
        )).encode())
    digest.update(outcome.metrics.summary().encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", list(REPLAYS))
def test_replay_matches_its_pinned_decisions(name):
    *_, statuses, digest = REPLAYS[name]
    outcome = _replay(name)
    assert Counter(r.status for r in outcome.responses) == statuses
    assert _digest(outcome) == digest


@pytest.mark.parametrize("name", ["nocache", "edf_slo"])
def test_latency_percentiles_cover_every_completion(name):
    """``percentile`` reads every completed request's latency once, across
    tenants: the same values ``np.percentile`` gives over the responses."""
    outcome = _replay(name)
    lats = [
        r.latency for r in outcome.responses
        if r.status in ("served", "coalesced", "cached")
    ]
    metrics = outcome.metrics
    for q in (50.0, 99.0):
        assert metrics.percentile(q) == float(np.percentile(lats, q))
