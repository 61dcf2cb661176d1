"""`repro.obs` — tracing, metrics and run-timeline observability.

Three pillars (see DESIGN.md §5f):

* :mod:`repro.obs.trace` — structured, dual-clocked tracing (nested
  spans + point events; sim time from the engine clock, wall time from
  ``perf_counter``), attached to the engine via the observer hook and
  zero-cost when disabled;
* :mod:`repro.obs.metrics` — labelled counters / gauges / fixed-bucket
  histograms / summaries, mergeable across sweep workers, and the
  ``BENCH.json`` timing report (:func:`~repro.obs.metrics.collect`);
* :mod:`repro.obs.export` — Chrome-trace/Perfetto ``trace.json``,
  JSONL event log, Prometheus textfile and a terminal run summary.

Quickstart::

    from repro import obs

    tracer = obs.Tracer()
    with obs.tracing(tracer):
        report = replay_controller(dataset, topology, demands, days=7)
    obs.export_run("out/obs", tracer, obs.metrics.current())

or, from the CLI, ``repro --trace out/obs replay ...`` (also via the
``REPRO_TRACE`` environment variable).
"""

from . import export, metrics, names, trace
from .export import (
    chrome_trace,
    events_jsonl,
    export_run,
    prometheus_text,
    run_summary,
    span_tree_json,
    state_timeline_jsonl,
    strip_wall,
)
from .metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    timestamp_unix,
)
from .names import CATALOG, describe
from .trace import (
    PointEvent,
    Span,
    Tracer,
    current_tracer,
    point,
    span,
    tracing,
)

__all__ = [
    "CATALOG",
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "PointEvent",
    "Span",
    "Tracer",
    "chrome_trace",
    "current_tracer",
    "describe",
    "events_jsonl",
    "export",
    "export_run",
    "metrics",
    "names",
    "point",
    "prometheus_text",
    "run_summary",
    "span",
    "span_tree_json",
    "state_timeline_jsonl",
    "strip_wall",
    "timestamp_unix",
    "trace",
    "tracing",
]
