"""The tuning engine: cached, instrumented autotuning.

Ties together the two pieces the hot compilation path needs:

* :class:`~repro.engine.cache.TuningCache` — content-addressed memoization
  of tuning decisions keyed by (source hash, arch, tier, configs, launch
  geometry), in memory and optionally on disk;
* a :class:`~repro.obs.metrics.MetricsRegistry` — per-stage wall time
  (the ``stage.<name>`` histograms :meth:`TuningEngine.stage` observes)
  and event counters, surfaced through :meth:`Program.stats` and the CLI.

One tune runs on one thread; scale-out happens at job granularity, over
worker processes, in :class:`~repro.engine.scheduler.SweepScheduler`.

Every :class:`~repro.pipeline.Program` uses the process-wide default
engine unless given its own, so repeated compilations of the same
benchmark source share one cache.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, ContextManager, Dict, Iterator, Optional

from ..obs import tracer as obs_tracer
from ..obs.metrics import MetricsRegistry
from .cache import (CacheEntry, TuningCache, default_cache_path,
                    source_hash, tuning_key)
from .scheduler import (Job, JobResult, SWEEP_WORKERS_ENV, SweepScheduler,
                        sweep_workers)

__all__ = [
    "CacheEntry", "Job", "JobResult", "SWEEP_WORKERS_ENV",
    "SweepScheduler", "TuningCache", "TuningEngine", "VALIDATE_ENV",
    "default_cache_path", "default_engine", "set_default_engine",
    "source_hash", "stage_timer", "sweep_workers", "tuning_key",
]

#: registry namespace of the stage-timing histograms
STAGE_PREFIX = "stage."

#: set to a truthy value ("1", "true", "yes", "on") to turn the
#: differential validation gate on for every tuning run
VALIDATE_ENV = "REPRO_VALIDATE"


def _validate_from_env() -> bool:
    return os.environ.get(VALIDATE_ENV, "").strip().lower() in (
        "1", "true", "yes", "on")


class TuningEngine:
    """One cache + one metrics registry.

    Every stage the engine drives is timed into ``registry`` by
    :meth:`stage`; event counts (cache hits and misses, alternative
    generations) are counters on the same registry. ``validate`` turns on
    the differential equivalence gate in
    :func:`~repro.autotune.tdo.tune_wrapper`: every surviving alternative
    is interpreted against the uncoarsened baseline and diverging ones are
    eliminated before timing. Defaults to ``$REPRO_VALIDATE``.
    """

    def __init__(self, cache: Optional[TuningCache] = None,
                 validate: Optional[bool] = None):
        self.cache = cache if cache is not None \
            else TuningCache(default_cache_path())
        self.registry = MetricsRegistry()
        self.validate = _validate_from_env() if validate is None \
            else bool(validate)

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Charge the wall time of the enclosed block to stage ``name``:
        a ``stage:<name>`` span and the ``stage.<name>`` histogram."""
        with obs_tracer.span("stage:%s" % name, category="stage"):
            start = time.perf_counter()
            try:
                yield
            finally:
                self.registry.histogram(STAGE_PREFIX + name).observe(
                    time.perf_counter() - start)

    def stages(self) -> Dict[str, Dict[str, float]]:
        """Each stage's histogram summary (``count``, ``total``, ...)."""
        return {name[len(STAGE_PREFIX):]: summary for name, summary
                in self.registry.histogram_summaries().items()
                if name.startswith(STAGE_PREFIX)}

    def stage_seconds(self) -> Dict[str, float]:
        """Wall seconds charged to each stage so far."""
        return {name: summary["total"]
                for name, summary in self.stages().items()}

    def __repr__(self) -> str:
        return "TuningEngine(cache=%d entries%s)" % (
            len(self.cache), ", validate" if self.validate else "")


def stage_timer(engine: Optional[TuningEngine]
                ) -> Callable[[str], ContextManager]:
    """``engine.stage``, or an untimed stage when there is no engine."""
    # nullcontext(name) enters as a no-op
    return engine.stage if engine is not None else nullcontext


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
