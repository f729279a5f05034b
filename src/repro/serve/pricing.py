"""Online job pricing: each job's own run, calibrated by observed wall time.

The scheduler needs a *wall-clock* service-time estimate for every queued
job — that is what deadlines are written against.  The server prices a job
by running it timing-only (``functional=False``) on the engine instance and
pooled dataset that dispatch will use.  That run's ``sim_time`` is the one
dispatch returns, and the run plans and memoizes what dispatch then reuses:
the engine's plan and the timeline it keeps, so a fault-free dispatch with
the fast path allowed simulates nothing.
The :class:`JobPricer` closes the loop by learning, per (app, engine spec)
cell, an EWMA of the observed wall-per-simulated-second ratio from the
simulated times every executed batch returns.  A priced job costs
``sim_time * ratio`` wall seconds.

Until a cell has been observed at least once, and for a job whose pricing
run raised, :meth:`JobPricer.price` returns ``None`` and the scheduler
stays conservative: no predictive rejection is ever issued on an unpriced
backlog.

A batch is exactly one compatibility cell (one engine spec, one app), so
one timed batch is one clean calibration sample for one cell.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.bench.jobs import JobSpec
from repro.errors import ReproError
from repro.memo import Memo

#: EWMA smoothing for all calibration signals (recent rounds dominate)
EWMA_ALPHA = 0.3

_UNSEEN = object()


def _ewma(old: Optional[float], sample: float) -> float:
    if old is None:
        return sample
    return (1.0 - EWMA_ALPHA) * old + EWMA_ALPHA * sample


class JobPricer:
    """Wall-clock service-time estimates for jobs, learned online."""

    def __init__(self):
        #: memoized sim_time per job identity (None = its pricing run raised)
        self._sim = Memo("pricing.sim", 1024)
        #: EWMA wall/sim calibration ratio per (app, engine spec) cell
        self._ratio: dict = {}
        #: EWMA observed wall per engine run across *all* cells — the
        #: adaptive batcher sizes dispatch windows from this
        self.run_wall: Optional[float] = None

    @staticmethod
    def cell(job: JobSpec) -> tuple:
        return (job.dataset.app, job.engine)

    def price(self, job: JobSpec, sim_time: Callable) -> Optional[float]:
        """Predicted wall seconds to serve ``job`` solo, or ``None``.

        ``sim_time(job)`` is the job's simulated time from a timing-only
        run on the engine that will serve it; it is called once per job
        identity.  ``None`` means "no calibrated estimate": the cell has no
        observed batch yet, or the run raised.  The caller must not base
        rejections on it.
        """
        key = (job.dataset, job.engine, job.config)
        sim = self._sim.get(key, _UNSEEN)
        if sim is _UNSEEN:
            try:
                sim = sim_time(job)
            except ReproError:
                sim = None
            self._sim.put(key, sim)
        ratio = self._ratio.get(self.cell(job))
        if sim is None or ratio is None:
            return None
        return sim * ratio

    def observe_batch(
        self, jobs: list, elapsed: float, n_runs: int, sims: list
    ) -> None:
        """Fold one executed batch (``n_runs`` engine runs over ``jobs``
        unique jobs, ``elapsed`` wall seconds, ``sims`` the runs' simulated
        times) into the calibration state."""
        if n_runs <= 0 or elapsed <= 0.0 or not jobs:
            return
        self.run_wall = _ewma(self.run_wall, elapsed / n_runs)
        if n_runs == len(jobs) and sum(sims) > 0.0:
            cell = self.cell(jobs[0])
            self._ratio[cell] = _ewma(self._ratio.get(cell), elapsed / sum(sims))
