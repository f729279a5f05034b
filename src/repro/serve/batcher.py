"""Grouping a dispatch window into engine-compatible batches.

Two requests are *compatible* — may share one pipeline pass — when they
name the same engine spec (every constructor keyword), the same app, and
the same hardware spec. Within a batch, requests that are *exact*
duplicates (same dataset recipe and same full config) collapse onto a
single engine run: the first becomes the batch leader, the rest become
followers that share the leader's result object.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.bench.jobs import JobSpec
from repro.serve.workload import ServeRequest


def batch_key(job: JobSpec) -> tuple:
    """Compatibility class of a job: (engine spec, app, hardware spec)."""
    return (job.engine, job.dataset.app, job.config.hardware)


def unique_key(job: JobSpec) -> tuple:
    """Exact-duplicate class of a job within a batch."""
    return (job.dataset, job.config)


@dataclass
class Batch:
    """One compatibility class worth of requests from a dispatch window."""

    key: tuple
    requests: list = field(default_factory=list)

    @property
    def engine_spec(self):
        return self.key[0]

    def unique_jobs(self) -> "OrderedDict[tuple, list[ServeRequest]]":
        """Requests grouped by exact-duplicate class, insertion-ordered.

        The first request of each group is the leader; followers coalesce
        onto its result.
        """
        groups: OrderedDict[tuple, list[ServeRequest]] = OrderedDict()
        for req in self.requests:
            groups.setdefault(unique_key(req.job), []).append(req)
        return groups


def coalesce(window: list[ServeRequest]) -> list[Batch]:
    """Split a dispatch window into compatibility batches, order-stable."""
    batches: OrderedDict[tuple, Batch] = OrderedDict()
    for req in window:
        key = batch_key(req.job)
        if key not in batches:
            batches[key] = Batch(key=key)
        batches[key].requests.append(req)
    return list(batches.values())
