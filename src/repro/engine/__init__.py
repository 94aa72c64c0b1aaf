"""The tuning engine: cached, instrumented autotuning.

Ties together the two pieces the hot compilation path needs:

* :class:`~repro.engine.cache.TuningCache` — content-addressed memoization
  of tuning decisions keyed by (source hash, arch, tier, configs, launch
  geometry), in memory and optionally on disk;
* :class:`~repro.engine.stats.EngineStats` — per-stage wall time and
  cache-hit counters, surfaced through :meth:`Program.stats` and the CLI.

One tune runs on one thread; scale-out happens at job granularity, over
worker processes, in :class:`~repro.engine.scheduler.SweepScheduler`.

Every :class:`~repro.pipeline.Program` uses the process-wide default
engine unless given its own, so repeated compilations of the same
benchmark source share one cache.
"""

from __future__ import annotations

import os
from typing import Optional

from .cache import (CacheEntry, TuningCache, default_cache_path,
                    source_hash, tuning_key)
from .scheduler import (Job, JobResult, SWEEP_WORKERS_ENV, SweepScheduler,
                        sweep_workers)
from .stats import EngineStats

__all__ = [
    "CacheEntry", "EngineStats", "Job", "JobResult", "SWEEP_WORKERS_ENV",
    "SweepScheduler", "TuningCache", "TuningEngine", "VALIDATE_ENV",
    "default_cache_path", "default_engine", "set_default_engine",
    "source_hash", "sweep_workers", "tuning_key",
]

#: set to a truthy value ("1", "true", "yes", "on") to turn the
#: differential validation gate on for every tuning run
VALIDATE_ENV = "REPRO_VALIDATE"


def _validate_from_env() -> bool:
    return os.environ.get(VALIDATE_ENV, "").strip().lower() in (
        "1", "true", "yes", "on")


class TuningEngine:
    """One cache + one stats accumulator.

    ``validate`` turns on the differential equivalence gate in
    :func:`~repro.autotune.tdo.tune_wrapper`: every surviving alternative
    is interpreted against the uncoarsened baseline and diverging ones are
    eliminated before timing. Defaults to ``$REPRO_VALIDATE``.
    """

    def __init__(self, cache: Optional[TuningCache] = None,
                 stats: Optional[EngineStats] = None,
                 validate: Optional[bool] = None):
        self.cache = cache if cache is not None \
            else TuningCache(default_cache_path())
        self.stats = stats if stats is not None else EngineStats()
        self.validate = _validate_from_env() if validate is None \
            else bool(validate)

    def __repr__(self) -> str:
        return "TuningEngine(cache=%d entries%s)" % (
            len(self.cache), ", validate" if self.validate else "")


_default_engine: Optional[TuningEngine] = None


def default_engine() -> TuningEngine:
    """The process-wide engine shared by all Programs by default."""
    global _default_engine
    if _default_engine is None:
        _default_engine = TuningEngine()
    return _default_engine


def set_default_engine(engine: Optional[TuningEngine]) -> None:
    """Replace (or with ``None``, reset) the process-wide default engine."""
    global _default_engine
    _default_engine = engine
