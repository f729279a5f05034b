"""Extensions beyond the paper's evaluated system.

* :mod:`repro.ext.mapreduce` — the paper's stated future work ("we plan on
  applying BigKernel to MapReduce"): a map/reduce front end that compiles a
  record-wise mapper + associative reducer into a streaming
  :class:`~repro.apps.base.Application`, so arbitrary MapReduce jobs run on
  every execution scheme (including BigKernel) unchanged.

Multi-GPU sharding and the unified-memory baseline started here as
extensions and are now first-class engines in :mod:`repro.engines`
(:mod:`repro.engines.multigpu`, :mod:`repro.engines.uvm`).
"""

from repro.ext.mapreduce import MapReduceSpec, MapReduceApp, make_clickstream_job

__all__ = [
    "MapReduceSpec",
    "MapReduceApp",
    "make_clickstream_job",
]
