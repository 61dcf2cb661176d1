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

    from repro.obs import metrics
    from repro.obs.export import export_run
    from repro.obs.trace import Tracer, tracing
    from repro.sim.replay import replay_controller

    tracer = Tracer()
    with tracing(tracer):
        report = replay_controller(dataset, topology, demands, days=7)
    export_run("out/obs", tracer, metrics.current())

or, from the CLI, ``repro --trace out/obs replay ...`` (also via the
``REPRO_TRACE`` environment variable).
"""
