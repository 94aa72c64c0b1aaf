"""Observability for the compilation pipeline: traces, metrics, decisions.

The paper's alternatives mechanism (§VI) makes multi-stage decisions —
shared-memory pruning, register filtering, then timing-driven selection —
that are invisible from the outside. ``repro.obs`` makes every one of them
a first-class artifact:

* :mod:`~repro.obs.tracer` — a thread-safe, span-based tracer with a
  disabled-by-default no-op fast path. Instrumentation sites call
  :func:`~repro.obs.tracer.span`, which costs one global read when no
  tracer is installed;
* :mod:`~repro.obs.metrics` — a registry of counters / gauges /
  histograms (cleanup rewrite counts, cache traffic, filter survivor
  counts, per-alternative modeled times). The tuning engine records its
  stage times and event counts into its own registry of the same class,
  so there is exactly one metrics path;
* :mod:`~repro.obs.decisions` — a structured log of why each coarsening
  alternative was eliminated (and by which stage) or selected;
* :mod:`~repro.obs.export` — Chrome trace-event JSON (loadable in
  Perfetto / ``chrome://tracing``) and a plain-text flame summary;
* :mod:`~repro.obs.log` — the single ``repro`` stdlib-logging hierarchy
  behind the CLI's ``-v`` / ``-q`` flags.

The package depends only on the standard library and is imported by every
other layer, so it must never import from the rest of ``repro``.
"""

from .decisions import (AlternativeDecision, DecisionLog, TuneDecision,
                        GENERATION, REGISTERS, SHARED_MEMORY, TIMING,
                        logging_decisions)
from .export import (chrome_trace_events, flame_summary, histogram_table,
                     summarize_events, summarize_trace_file, trace_payload,
                     write_chrome_trace)
from .log import configure_logging, get_logger
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, collecting
from .tracer import Span, Tracer, span, tracing

__all__ = [
    "AlternativeDecision", "Counter", "DecisionLog", "Gauge", "GENERATION",
    "Histogram", "MetricsRegistry", "REGISTERS", "SHARED_MEMORY", "Span",
    "TIMING", "Tracer", "TuneDecision", "chrome_trace_events", "collecting",
    "configure_logging", "flame_summary", "get_logger", "histogram_table",
    "logging_decisions",
    "span", "summarize_events", "summarize_trace_file", "trace_payload",
    "tracing", "write_chrome_trace",
]
