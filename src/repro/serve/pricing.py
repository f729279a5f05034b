"""Online job pricing: analytic predictions calibrated by observed wall time.

The scheduler needs a *wall-clock* service-time estimate for every queued
job — that is what deadlines are written against.  The analytic predictor
(:func:`repro.analytic.predicted_sim_time`) supplies a cheap O(1) estimate
in *simulated* seconds for the engines it can model; the
:class:`JobPricer` closes the loop by learning, per (app, engine) cell, an
EWMA of the observed wall-per-simulated-second ratio from every executed
batch.  A priced job costs ``sim_time * ratio`` wall seconds.

Engines the predictor cannot price (the UVM family raises
:class:`~repro.errors.ReproError`) fall back to a per-cell EWMA of
observed wall time per engine run — pure measurement, no model.  Until a
cell has been observed at least once, :meth:`JobPricer.price` returns
``None`` and the scheduler stays conservative: no predictive rejection is
ever issued on an unpriced backlog.

A batch is exactly one compatibility cell (one engine spec, one app), so
one timed batch is one clean calibration sample for one cell.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.bench.jobs import JobSpec, engine_from_spec
from repro.errors import ReproError

#: EWMA smoothing for all calibration signals (recent rounds dominate)
EWMA_ALPHA = 0.3


def _ewma(old: Optional[float], sample: float) -> float:
    if old is None:
        return sample
    return (1.0 - EWMA_ALPHA) * old + EWMA_ALPHA * sample


class JobPricer:
    """Wall-clock service-time estimates for jobs, learned online."""

    def __init__(self):
        #: memoized analytic sim_time per job identity (None = unpredictable)
        self._sim: dict = {}
        #: EWMA wall/sim calibration ratio per (app, engine name) cell
        self._ratio: dict = {}
        #: EWMA observed wall per engine run per cell (UVM fallback path)
        self._per_run: dict = {}
        #: EWMA observed wall per engine run across *all* cells — the
        #: adaptive batcher sizes dispatch windows from this
        self.run_wall: Optional[float] = None
        self.stats = {
            "priced": 0,
            "modeled": 0,
            "observed": 0,
            "unpriced": 0,
            "samples": 0,
        }

    @staticmethod
    def cell(job: JobSpec) -> tuple:
        return (job.dataset.app, job.engine.name)

    # ----------------------------------------------------------- predictions
    def _sim_for(self, job: JobSpec, dataset_loader: Callable) -> Optional[float]:
        """Analytic sim_time of a job, memoized; None when unmodelable."""
        key = (job.dataset, job.engine, job.config)
        if key in self._sim:
            return self._sim[key]
        from repro.analytic import predicted_sim_time, resolve_engine

        try:
            # an engine with no closed-form model (the UVM family) is
            # refused here, before a dataset is loaded for it
            engine = resolve_engine(engine_from_spec(job.engine))
            app, data = dataset_loader(job.dataset)
            sim = predicted_sim_time(app, data, job.config, engine)
        except ReproError:
            sim = None
        self._sim[key] = sim
        return sim

    def price(self, job: JobSpec, dataset_loader: Callable) -> Optional[float]:
        """Predicted wall seconds to serve ``job`` solo, or ``None``.

        ``None`` means "no calibrated estimate yet" — the caller must not
        base rejections on it.  Model-priced cells need one observed batch
        to fix the wall/sim scale; unmodelable cells need one observed
        batch to seed the per-run EWMA.
        """
        self.stats["priced"] += 1
        cell = self.cell(job)
        sim = self._sim_for(job, dataset_loader)
        if sim is not None:
            ratio = self._ratio.get(cell)
            if ratio is not None:
                self.stats["modeled"] += 1
                return sim * ratio
        per_run = self._per_run.get(cell)
        if per_run is not None:
            self.stats["observed"] += 1
            return per_run
        self.stats["unpriced"] += 1
        return None

    # ----------------------------------------------------------- calibration
    def observe_batch(
        self,
        jobs: list,
        elapsed: float,
        n_runs: int,
        dataset_loader: Callable,
    ) -> None:
        """Fold one executed batch (``n_runs`` engine runs over ``jobs``
        unique jobs, ``elapsed`` wall seconds) into the calibration state."""
        if n_runs <= 0 or elapsed <= 0.0 or not jobs:
            return
        self.stats["samples"] += 1
        per_run = elapsed / n_runs
        self.run_wall = _ewma(self.run_wall, per_run)
        cell = self.cell(jobs[0])
        self._per_run[cell] = _ewma(self._per_run.get(cell), per_run)
        if n_runs == len(jobs):
            sims = [self._sim_for(job, dataset_loader) for job in jobs]
            if all(s is not None for s in sims) and sum(sims) > 0.0:
                self._ratio[cell] = _ewma(
                    self._ratio.get(cell), elapsed / sum(sims)
                )
