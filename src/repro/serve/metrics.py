"""Counters and latency statistics for one server lifetime."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.units import fmt_bytes


def _tenant_bucket() -> dict:
    return {
        "submitted": 0,
        "completed": 0,
        "rejected": 0,
        "failed": 0,
        "shed": 0,
        "slo_met": 0,
        "slo_missed": 0,
    }


@dataclass
class ServeMetrics:
    """Everything the server counts; accounting identities hold at all times:

    ``submitted == admitted + rejected`` and, once the queue is drained,
    ``admitted == served + coalesced + cached + failed + shed``. When SLOs
    are in play, ``slo_total == slo_met + slo_missed + shed_slo + rejected
    (deadline-carrying)`` once everything has reached a terminal state.
    """

    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    #: rejections issued because the *priced* backlog already made the
    #: deadline unreachable (a subset of ``rejected``; the rest are
    #: queue-full rejections)
    rejected_predicted: int = 0
    #: batch leaders — unique jobs the engines actually executed
    served: int = 0
    #: followers whose result was shared from a leader in the same batch
    coalesced: int = 0
    #: exact repeats short-circuited by the run cache (zero engine runs)
    cached: int = 0
    failed: int = 0
    #: admitted requests dropped at dispatch time because their deadline had
    #: already passed on the serving clock (no engine run was burned)
    shed: int = 0
    #: dispatch rounds that executed at least one request
    batches: int = 0
    largest_batch: int = 0
    #: unique (dataset, config) jobs handed to an engine — the quantity the
    #: cache and coalescer exist to minimize
    engine_runs: int = 0
    #: datasets generated for a recipe the server did not hold (first
    #: sight, or after the store forgot it)
    datasets_generated: int = 0
    #: stored datasets whose dropped arrays a run read back, regenerating
    #: them
    datasets_restored: int = 0
    #: entries the store forgot to stay under its byte bound
    store_evictions: int = 0
    #: bytes the store's datasets hold now (their derivations)
    store_bytes: int = 0
    #: requests submitted with a finite deadline (SLO attainment denominator)
    slo_total: int = 0
    #: completed requests that met their deadline
    slo_met: int = 0
    #: completed requests that finished past their deadline
    slo_missed: int = 0
    per_tenant: dict = field(default_factory=dict)
    #: completion − arrival of every completed request, in trace seconds,
    #: by tenant; the server-wide percentiles read their concatenation
    tenant_latencies: dict = field(default_factory=dict)

    # ------------------------------------------------------------- updates
    def tenant(self, name: str) -> dict:
        bucket = self.per_tenant.get(name)
        if bucket is None:
            bucket = self.per_tenant[name] = _tenant_bucket()
        return bucket

    def observe_completion(
        self,
        tenant: str,
        latency: float,
        status: str,
        deadline: float = math.inf,
        completion: float = math.nan,
    ) -> None:
        bucket = self.tenant(tenant)
        if status == "failed":
            bucket["failed"] += 1
        elif status == "shed":
            bucket["shed"] += 1
        else:
            bucket["completed"] += 1
            lats = self.tenant_latencies.get(tenant)
            if lats is None:
                lats = self.tenant_latencies[tenant] = []
            lats.append(latency)
            if math.isfinite(deadline):
                if completion <= deadline:
                    self.slo_met += 1
                    bucket["slo_met"] += 1
                else:
                    self.slo_missed += 1
                    bucket["slo_missed"] += 1

    # ------------------------------------------------------------- queries
    @property
    def completed(self) -> int:
        """Requests that got a result (by any path)."""
        return self.served + self.coalesced + self.cached

    def percentile(self, q: float) -> float:
        """Latency percentile over every completion. ``np.percentile``
        reads order statistics, so the tenants' concatenated lists give
        the values the completions' own order would."""
        lats = [lat for lats in self.tenant_latencies.values() for lat in lats]
        if not lats:
            return float("nan")
        return float(np.percentile(np.asarray(lats), q))

    def tenant_percentile(self, name: str, q: float) -> float:
        """Latency percentile over one tenant's completions."""
        lats = self.tenant_latencies.get(name)
        if not lats:
            return float("nan")
        return float(np.percentile(np.asarray(lats), q))

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def slo_attainment(self) -> Optional[float]:
        """Fraction of deadline-carrying submissions that met the deadline.

        The denominator is every request submitted with a finite deadline —
        shed, rejected and failed ones count as misses — so the figure is
        honest about load shedding: dropping work can never raise it.
        ``None`` when no request carried a deadline.
        """
        if not self.slo_total:
            return None
        return self.slo_met / self.slo_total

    def summary(self) -> str:
        lines = [
            f"submitted={self.submitted} admitted={self.admitted} "
            f"rejected={self.rejected}"
            + (
                f" (predicted-violation={self.rejected_predicted})"
                if self.rejected_predicted
                else ""
            ),
            f"served={self.served} coalesced={self.coalesced} "
            f"cached={self.cached} failed={self.failed} shed={self.shed}",
            f"batches={self.batches} largest={self.largest_batch} "
            f"engine_runs={self.engine_runs}",
            f"datasets generated={self.datasets_generated} "
            f"restored={self.datasets_restored} "
            f"store={fmt_bytes(self.store_bytes)} "
            f"store_evictions={self.store_evictions}",
        ]
        if self.tenant_latencies:
            lines.append(f"latency p50={self.p50:.4f}s p99={self.p99:.4f}s")
        attainment = self.slo_attainment()
        if attainment is not None:
            lines.append(
                f"slo: met {self.slo_met}/{self.slo_total} "
                f"({100.0 * attainment:.1f}%) missed={self.slo_missed} "
                f"shed={self.shed} predicted-rejections="
                f"{self.rejected_predicted}"
            )
        for name in sorted(self.per_tenant):
            b = self.tenant(name)
            line = (
                f"  tenant {name}: submitted={b['submitted']} "
                f"completed={b['completed']} rejected={b['rejected']} "
                f"failed={b['failed']}"
            )
            if b["shed"] or b["slo_met"] or b["slo_missed"]:
                line += (
                    f" shed={b['shed']} met={b['slo_met']} "
                    f"missed={b['slo_missed']}"
                )
            p99 = self.tenant_percentile(name, 99.0)
            if not math.isnan(p99):
                line += f" p99={p99:.4f}s"
            lines.append(line)
        return "\n".join(lines)
