"""Closed-form analytic performance predictor.

``predict_run`` prices one engine configuration in O(1) from the engine's
own timing model: the closed forms of the unpipelined engines as they
are, the pipelined engines' chunk schedules closed with the max-plus
bound family of :mod:`repro.analytic.algebra` instead of a simulation.
``predict_grid`` vectorizes that over whole sweep grids (a million
configurations in seconds); ``repro report`` renders instant roofline /
what-if output.  The ``verify --analytic`` pillar grades the bound family
against the DES on the pipelined engines.
"""

from repro.analytic.algebra import STAGE_NAMES, pipeline_bounds
from repro.analytic.grid import (
    GRID_FIELDS,
    GridPrediction,
    predict_grid,
    suggest_grid,
)
from repro.analytic.predict import (
    PREDICT_RUN_STATS,
    PREDICTABLE_ENGINES,
    PredictedRun,
    predict_run,
    predict_templated,
    predicted_sim_time,
    resolve_engine,
)
from repro.analytic.report import run_report

__all__ = [
    "PREDICT_RUN_STATS",
    "GRID_FIELDS",
    "GridPrediction",
    "PREDICTABLE_ENGINES",
    "PredictedRun",
    "STAGE_NAMES",
    "pipeline_bounds",
    "predict_grid",
    "predict_run",
    "predict_templated",
    "predicted_sim_time",
    "resolve_engine",
    "run_report",
    "suggest_grid",
]
