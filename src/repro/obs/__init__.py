"""`repro.obs` — tracing, metrics and run-timeline observability.

Three pillars (see DESIGN.md §5f):

* :mod:`repro.obs.trace` — structured, dual-clocked tracing (nested
  spans + point events; sim time from the run's
  :class:`~repro.engine.clock.SimClock`, wall time from
  ``perf_counter``), zero-cost when disabled;
* :mod:`repro.obs.metrics` — labelled counters / gauges / fixed-bucket
  histograms / summaries, mergeable across sweep workers, and the
  ``BENCH.json`` timing report (:func:`~repro.obs.metrics.collect`);
* :mod:`repro.obs.export` — Chrome-trace/Perfetto ``trace.json``,
  JSONL event log, Prometheus textfile and a terminal run summary.

Quickstart — trace a one-day replay of the paper's Figure-7 square,
with a TE round every six hours, and write the artifacts::

    >>> import tempfile
    >>> import numpy as np
    >>> from repro.core.controller import DynamicCapacityController
    >>> from repro.core.policies import run_policy
    >>> from repro.net.demands import Demand
    >>> from repro.net.topologies import figure7_topology
    >>> from repro.obs import metrics
    >>> from repro.obs.export import export_run
    >>> from repro.obs.trace import Tracer, tracing
    >>> from repro.sim.replay import replay_controller
    >>> from repro.telemetry.traces import TelemetryFeed
    >>> topology = figure7_topology()
    >>> day = np.arange(96) * 900.0  # the 15-minute telemetry grid
    >>> traces = TelemetryFeed.from_series(
    ...     {link.link_id: (day, np.full(96, 16.0))
    ...      for link in topology.real_links()}
    ... ).traces_by_link
    >>> demands = [Demand("A", "B", 125.0), Demand("C", "D", 125.0)]
    >>> controller = DynamicCapacityController(topology, policy=run_policy())
    >>> tracer = Tracer()
    >>> with metrics.isolated() as registry, tracing(tracer):
    ...     result = replay_controller(
    ...         controller, traces, demands, te_interval_s=6 * 3600.0
    ...     )
    >>> result.n_rounds, round(result.mean_throughput_gbps)
    (4, 250)
    >>> [s.sim_start_s for s in tracer.spans if s.name == "controller.round"]
    [0.0, 21600.0, 43200.0, 64800.0]
    >>> with tempfile.TemporaryDirectory() as out:
    ...     sorted(export_run(out, tracer, registry))
    ['events', 'metrics', 'span_tree', 'state_timeline', 'trace']

or, from the CLI, ``repro --trace out/obs reactive ...`` (also via the
``REPRO_TRACE`` environment variable).
"""
