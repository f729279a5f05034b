"""Grouping a dispatch window into engine-compatible batches.

Two requests are *compatible* — may share one pipeline pass — when they
name the same engine spec (every constructor keyword), the same app, and
the same hardware spec. Within a batch, requests that are *exact*
duplicates (same dataset recipe and same full config) collapse onto a
single engine run: the first becomes the batch leader, the rest become
followers that share the leader's result object.

A server keys each admitted request once, at submit, into a
:class:`QueuedRequest`; :func:`coalesce` groups a window of them into
batches and duplicate groups in one pass over those keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.bench.jobs import JobSpec
from repro.serve.workload import ServeRequest


def batch_key(job: JobSpec) -> tuple:
    """Compatibility class of a job: (engine spec, app, hardware spec)."""
    return (job.engine, job.dataset.app, job.config.hardware)


def unique_key(job: JobSpec) -> tuple:
    """Exact-duplicate class of a job within a batch."""
    return (job.dataset, job.config)


class QueuedRequest:
    """One admitted request as a server's queue holds it: the request's
    fields, and what dispatch reads of it, derived once at submit — its
    serving-clock deadline, its admission price and its batch key
    (:func:`batch_key`). ``response`` is the terminal response dispatch
    builds for it.

    Its duplicate key is its job: two jobs with the same
    :func:`batch_key` and :func:`unique_key` are equal jobs (the app is
    the dataset's and the hardware the config's), so equal jobs mark
    exact duplicates anywhere in a window, and a job keeps its hash.
    """

    __slots__ = (
        "req_id", "tenant", "arrival", "job", "deadline", "price",
        "batch_key", "response",
    )

    def __init__(
        self,
        req: ServeRequest,
        deadline: float = math.inf,
        price: Optional[float] = None,
    ):
        job = req.job
        self.req_id = req.req_id
        self.tenant = req.tenant
        self.arrival = req.arrival
        self.job = job
        self.deadline = deadline
        self.price = price
        self.batch_key = batch_key(job)
        self.response = None


@dataclass
class Batch:
    """One compatibility class worth of requests from a dispatch window."""

    key: tuple
    #: the batch's requests, in window order
    requests: list = field(default_factory=list)
    #: its duplicate groups, in order of first appearance: each a list of
    #: requests, the leader first; followers coalesce onto its result
    groups: list = field(default_factory=list)

    @property
    def engine_spec(self):
        return self.key[0]


def coalesce(window: list[QueuedRequest]) -> list[Batch]:
    """Split a dispatch window into compatibility batches and each batch
    into duplicate groups, in one order-stable pass over the requests'
    kept batch keys and their jobs (the duplicate key)."""
    batches: dict = {}
    groups: dict = {}
    for req in window:
        group = groups.setdefault(req.job, [])
        if group:
            batch = batches[req.batch_key]
        else:
            batch = batches.get(req.batch_key)
            if batch is None:
                batch = batches[req.batch_key] = Batch(req.batch_key)
            batch.groups.append(group)
        group.append(req)
        batch.requests.append(req)
    return list(batches.values())
