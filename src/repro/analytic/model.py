"""App cost models for the analytic predictor.

``AppModel`` freezes everything the closed-form predictor needs to know
about one (app, dataset, engine-features) triple into plain scalars:
the access-profile byte/op ratios, the aggregate totals, the compiler
slice verdict, and the sampled pattern-recognition fraction.  With the
model extracted once, evaluating a configuration — or a million of them
(``repro.analytic.grid``) — touches no app code at all.

One deliberate approximation lives here: the exact engine re-samples the
pattern fraction per (thread count, chunk geometry), while the model
samples it once at a reference geometry and treats it as
geometry-independent.  For the bundled apps the recognizer's verdict is a
property of the app's address stream, not of where chunk boundaries fall,
so the approximation is exact in practice; ``verify --analytic`` fuzzes
geometry precisely to keep that claim honest (the scalar
``predict_run`` path re-samples exactly, via the engine's own schedule).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.apps.base import AppData, Application, dataset_key
from repro.engines.base import EngineConfig
from repro.engines.bigkernel import BigKernelEngine, BigKernelFeatures
from repro.engines.gpu_common import chunk_plan

#: process-wide accounting of :func:`extract_app_model` memoization, the
#: sibling of ``DATASET_HASH_STATS`` (apps.base): ``requests`` counts every
#: extraction ask, ``hits`` the ones answered from the content-keyed cache,
#: ``misses`` the full app-byte walks actually paid
ANALYTIC_MODEL_STATS = {"requests": 0, "hits": 0, "misses": 0}

#: content-keyed LRU of extracted models. The model is a frozen pure
#: function of (dataset content, engine features, sampling geometry), so
#: the key is exactly those: :func:`repro.apps.base.dataset_key` names the
#: bytes, and the geometry legs name everything
#: ``_sample_pattern_fraction`` reads (thread count and chunk size).
_MODEL_CACHE: "OrderedDict[tuple, AppModel]" = OrderedDict()
_MODEL_CACHE_MAX = 128


@dataclass(frozen=True)
class AppModel:
    """Scalar cost model of one (app, dataset, features) triple."""

    app: str
    units: int
    passes: int
    record_bytes: float
    read_bytes_per_record: float
    write_bytes_per_record: float
    reads_per_record: float
    writes_per_record: float
    elem_bytes: float
    gpu_ops_per_record: float
    cpu_ops_per_record: float
    resident_bytes_per_record: float
    emitted_addresses_per_record: float
    gather_run_bytes: float
    gpu_divergence: float
    #: aggregate streamed bytes (units × record_bytes, the totals() convention)
    data_bytes: int
    cpu_ops_total: float
    #: compiler slice verdict (falls back to the profile's claim)
    sliceable: bool
    pattern_friendly: Optional[bool]
    #: pattern fraction sampled at the reference geometry (0.0 when the
    #: profile opts out of sampling)
    pattern_fraction: float
    #: engine ablation switches (BigKernelFeatures)
    feature_reduce_volume: bool
    feature_coalesce: bool
    feature_label: str

    @property
    def reduce_volume(self) -> bool:
        """Does the modelled bigkernel run ship sliced payloads?"""
        return self.feature_reduce_volume and self.sliceable

    @property
    def payload_per_unit(self) -> float:
        """Bytes per unit crossing PCIe h2d under the modelled features."""
        return (
            self.read_bytes_per_record if self.reduce_volume else self.record_bytes
        )


def extract_app_model(
    app: Application,
    data: AppData,
    config: Optional[EngineConfig] = None,
    features: Optional[BigKernelFeatures] = None,
) -> AppModel:
    """Build the scalar model, sampling pattern state at ``config``'s geometry.

    Memoized on the dataset's content identity plus the feature set and the
    sampling geometry (``ANALYTIC_MODEL_STATS`` counts hits/misses), so a
    serving loop or grid sweep that prices the same (app, dataset, engine)
    cell repeatedly re-walks the app bytes exactly once.
    """
    config = config if config is not None else EngineConfig()
    features = features if features is not None else BigKernelFeatures.full()
    ANALYTIC_MODEL_STATS["requests"] += 1
    cache_key = (
        app.name,
        dataset_key(data),
        features.label,
        config.chunk_bytes,
        config.total_compute_threads,
        config.pattern_recognition,
    )
    cached = _MODEL_CACHE.get(cache_key)
    if cached is not None:
        ANALYTIC_MODEL_STATS["hits"] += 1
        _MODEL_CACHE.move_to_end(cache_key)
        return cached
    ANALYTIC_MODEL_STATS["misses"] += 1
    profile = app.access_profile(data)
    units = app.n_units(data)
    engine = BigKernelEngine(features)
    sliceable = engine._sliceable(app, profile)
    reduce_volume = features.reduce_volume and sliceable
    payload = profile.read_bytes_per_record if reduce_volume else profile.record_bytes
    fraction = 0.0
    if config.pattern_recognition and profile.pattern_friendly is not None:
        upc, _ = chunk_plan(units, config.chunk_bytes, payload)
        fraction = engine._sample_pattern_fraction(app, data, config, upc)
    data_bytes = int(units * profile.record_bytes)
    cpu_ops_total = units * profile.cpu_ops_per_record
    model = AppModel(
        app=app.name,
        units=units,
        passes=profile.passes,
        record_bytes=profile.record_bytes,
        read_bytes_per_record=profile.read_bytes_per_record,
        write_bytes_per_record=profile.write_bytes_per_record,
        reads_per_record=profile.reads_per_record,
        writes_per_record=profile.writes_per_record,
        elem_bytes=profile.elem_bytes,
        gpu_ops_per_record=profile.gpu_ops_per_record,
        cpu_ops_per_record=profile.cpu_ops_per_record,
        resident_bytes_per_record=profile.resident_bytes_per_record,
        emitted_addresses_per_record=profile.emitted_addresses_per_record,
        gather_run_bytes=profile.gather_run_bytes,
        gpu_divergence=profile.gpu_divergence,
        data_bytes=int(data_bytes),
        cpu_ops_total=cpu_ops_total,
        sliceable=sliceable,
        pattern_friendly=profile.pattern_friendly,
        pattern_fraction=fraction,
        feature_reduce_volume=features.reduce_volume,
        feature_coalesce=features.coalesce,
        feature_label=features.label,
    )
    _MODEL_CACHE[cache_key] = model
    while len(_MODEL_CACHE) > _MODEL_CACHE_MAX:
        _MODEL_CACHE.popitem(last=False)
    return model
