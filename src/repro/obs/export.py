"""Exporters: Chrome trace JSON, JSONL event log, Prometheus text.

Four renderings of one run's observability record:

* :func:`chrome_trace` — the Trace Event Format consumed by Perfetto
  and ``chrome://tracing``.  Two process tracks: pid 1 is **sim time**
  (deterministic; microseconds of simulated time), pid 2 is **wall
  time** (profiling view).  :func:`strip_wall` removes the wall track
  and wall-clock args so CI can byte-diff what remains.
* :func:`events_jsonl` — one JSON object per span/point event in
  record order, grep-friendly.
* :func:`prometheus_text` — the Prometheus textfile exposition of a
  :class:`~repro.obs.metrics.MetricsRegistry` (node-exporter textfile
  collector compatible).
* :func:`run_summary` — a short terminal digest.

:func:`export_run` writes the whole set into a directory:
``trace.json``, ``span_tree.json`` (sim-time-only, canonical — the
file CI's ``determinism`` job diffs across two processes),
``events.jsonl`` and
``metrics.prom``.  All stamped timestamps honour ``SOURCE_DATE_EPOCH``
via :func:`repro.obs.metrics.timestamp_unix`.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any

from .metrics import MetricsRegistry, timestamp_unix
from .names import describe
from .trace import Tracer

#: pid of the simulated-time track in the Chrome trace
SIM_PID = 1
#: pid of the wall-clock track in the Chrome trace
WALL_PID = 2


def _us(seconds: float) -> float:
    return round(seconds * 1e6, 3)


def chrome_trace(tracer: Tracer, *, include_wall: bool = True) -> dict[str, Any]:
    """Render ``tracer`` in the Chrome Trace Event Format.

    Spans become complete events (``ph: "X"``), point events become
    instants (``ph: "i"``).  Spans with no sim clock bound appear only
    on the wall track.
    """
    events: list[dict[str, Any]] = [
        {"ph": "M", "pid": SIM_PID, "tid": 0, "name": "process_name",
         "args": {"name": "sim time (deterministic)"}},
    ]
    if include_wall:
        events.append(
            {"ph": "M", "pid": WALL_PID, "tid": 0, "name": "process_name",
             "args": {"name": "wall time (profiling)"}}
        )
    for span in tracer.spans:
        args = dict(span.attrs)
        if span.sim_start_s is not None and span.sim_end_s is not None:
            events.append(
                {
                    "ph": "X",
                    "pid": SIM_PID,
                    "tid": 1,
                    "name": span.name,
                    "ts": _us(span.sim_start_s),
                    "dur": _us(span.sim_end_s - span.sim_start_s),
                    "args": args,
                }
            )
        if include_wall and span.wall_end_s is not None:
            events.append(
                {
                    "ph": "X",
                    "pid": WALL_PID,
                    "tid": 1,
                    "name": span.name,
                    "ts": _us(span.wall_start_s),
                    "dur": _us(span.wall_end_s - span.wall_start_s),
                    "args": args,
                }
            )
    for event in tracer.events:
        args = dict(event.attrs)
        if event.sim_time_s is not None:
            events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "pid": SIM_PID,
                    "tid": 1,
                    "name": event.name,
                    "ts": _us(event.sim_time_s),
                    "args": args,
                }
            )
        if include_wall:
            events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "pid": WALL_PID,
                    "tid": 1,
                    "name": event.name,
                    "ts": _us(event.wall_time_s),
                    "args": args,
                }
            )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "generated_unix": timestamp_unix(),
        },
    }


def strip_wall(trace: dict[str, Any]) -> dict[str, Any]:
    """Drop the wall-clock track from a :func:`chrome_trace` dict.

    What remains is derived purely from simulated time and record
    order, so two runs of the same seeded scenario byte-diff clean.
    """
    return {
        **trace,
        "traceEvents": [e for e in trace["traceEvents"] if e["pid"] != WALL_PID],
    }


def events_jsonl(tracer: Tracer) -> str:
    """One JSON object per record, interleaved in seq order."""
    rows: list[tuple[int, dict[str, Any]]] = []
    payload = tracer.to_payload()
    for row in payload["spans"]:
        rows.append((row["seq"], {"record": "span", **row}))
    for row in payload["events"]:
        rows.append((row["seq"], {"record": "event", **row}))
    rows.sort(key=lambda item: item[0])
    return "".join(json.dumps(row, sort_keys=True) + "\n" for _, row in rows)


def span_tree_json(tracer: Tracer) -> str:
    """Canonical JSON of the sim-time-only span tree (CI byte-diffs this)."""
    return json.dumps(tracer.span_tree(), sort_keys=True, indent=1) + "\n"


def state_timeline_jsonl(tracer: Tracer) -> str:
    """One JSON line per ``state.transition`` point event, in seq order.

    Every :class:`~repro.state.store.StateStore` commit publishes one such
    event (store name, version chain, label, per-kind delta counts), so
    a traced run's network-state evolution lands in one grep-friendly
    file.  Sim-time only: byte-stable for a fixed seed.
    """
    rows = [
        {
            "seq": e.seq,
            "sim_time_s": e.sim_time_s,
            **e.attrs,
        }
        for e in tracer.events
        if e.name == "state.transition"
    ]
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


# ---------------------------------------------------------------------------
# Prometheus textfile exposition
# ---------------------------------------------------------------------------

_METRIC_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    return _METRIC_NAME_RE.sub("_", name)


def _prom_labels(key: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{_prom_name(k)}="{v}"' for k, v in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _fmt(value: float) -> str:
    return repr(float(value))


def prometheus_text(registry: MetricsRegistry) -> str:
    """Prometheus textfile exposition of every series in ``registry``.

    Summaries are flattened to ``_count`` / ``_sum`` / ``_min`` /
    ``_max`` series; histograms emit cumulative ``_bucket``
    lines with the standard ``le`` label.
    """
    lines: list[str] = []
    typed: set[str] = set()

    def declare(name: str, kind: str, source: str | None = None) -> None:
        if name not in typed:
            typed.add(name)
            # HELP text comes from the central catalog (repro.obs.names)
            # so exposition and documentation cannot drift
            help_text = describe(source) if source else None
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")

    for (name, key), counter in sorted(registry._counters.items()):
        pname = _prom_name(name)
        declare(pname, "counter", name)
        lines.append(f"{pname}{_prom_labels(key)} {_fmt(counter.value)}")
    for (name, key), gauge in sorted(registry._gauges.items()):
        pname = _prom_name(name)
        declare(pname, "gauge", name)
        lines.append(f"{pname}{_prom_labels(key)} {_fmt(gauge.value)}")
    for (name, key), hist in sorted(registry._histograms.items()):
        pname = _prom_name(name)
        declare(pname, "histogram", name)
        cumulative = 0
        for bound, count in zip(hist.buckets, hist.counts):
            cumulative += count
            le = _prom_labels(key, f'le="{_fmt(bound)}"')
            lines.append(f"{pname}_bucket{le} {cumulative}")
        le = _prom_labels(key, 'le="+Inf"')
        lines.append(f"{pname}_bucket{le} {cumulative + hist.inf_count}")
        lines.append(f"{pname}_sum{_prom_labels(key)} {_fmt(hist.total)}")
        lines.append(f"{pname}_count{_prom_labels(key)} {hist.n}")
    for (name, key), summary in sorted(registry._summaries.items()):
        pname = _prom_name(name)
        labels = _prom_labels(key)
        declare(f"{pname}_seconds", "summary", name)
        lines.append(f"{pname}_seconds_count{labels} {summary.count}")
        lines.append(f"{pname}_seconds_sum{labels} {_fmt(summary.total_s)}")
        declare(f"{pname}_seconds_min", "gauge")
        lines.append(
            f"{pname}_seconds_min{labels} "
            f"{_fmt(summary.min_s if summary.count else 0.0)}"
        )
        declare(f"{pname}_seconds_max", "gauge")
        lines.append(f"{pname}_seconds_max{labels} {_fmt(summary.max_s)}")
    return "\n".join(lines) + "\n" if lines else ""


# ---------------------------------------------------------------------------
# terminal digest + directory export
# ---------------------------------------------------------------------------


def run_summary(
    tracer: Tracer | None = None,
    registry: MetricsRegistry | None = None,
    *,
    top: int = 8,
) -> str:
    """A short human-readable digest of a run's trace and metrics."""
    lines: list[str] = ["== repro.obs run summary =="]
    if tracer is not None:
        roots = [s for s in tracer.spans if s.parent_id is None]
        sim_ends = [s.sim_end_s for s in tracer.spans if s.sim_end_s is not None]
        lines.append(
            f"trace: {len(tracer.spans)} spans ({len(roots)} roots), "
            f"{len(tracer.events)} point events"
            + (f", sim horizon {max(sim_ends):.3f}s" if sim_ends else "")
        )
        engines = getattr(tracer, "engines", [])
        if engines:
            n_events = sum(e.stats.n_events for e in engines)
            n_observer_errors = sum(e.stats.n_observer_errors for e in engines)
            by_kind: dict[str, int] = {}
            for e in engines:
                for kind, n in e.stats.by_kind.items():
                    by_kind[kind] = by_kind.get(kind, 0) + n
            kinds = ", ".join(
                f"{kind}={n}"
                for kind, n in sorted(by_kind.items(), key=lambda kv: -kv[1])[:4]
            )
            lines.append(
                f"engine: {len(engines)} engine(s), {n_events} events"
                + (f" ({kinds})" if kinds else "")
                + f", {n_observer_errors} observer errors"
            )
        n_transitions = sum(
            1 for e in tracer.events if e.name == "state.transition"
        )
        if n_transitions:
            lines.append(f"state: {n_transitions} transitions")
        by_name: dict[str, tuple[int, float]] = {}
        for s in tracer.spans:
            n, tot = by_name.get(s.name, (0, 0.0))
            by_name[s.name] = (n + 1, tot + (s.wall_duration_s or 0.0))
        ranked = sorted(by_name.items(), key=lambda kv: -kv[1][1])[:top]
        for name, (n, tot) in ranked:
            lines.append(f"  span {name:<28} n={n:<6} wall={tot * 1e3:9.2f} ms")
    if registry is not None and not registry.empty:
        counters = registry.counters()
        if counters:
            lines.append(f"metrics: {len(counters)} counter series")
            for name, value in sorted(
                counters.items(), key=lambda kv: -kv[1]
            )[:top]:
                lines.append(f"  counter {name:<40} {value:g}")
        summaries = registry.summaries()
        if summaries:
            ranked_s = sorted(
                summaries.items(), key=lambda kv: -kv[1].total_s
            )[:top]
            for name, s in ranked_s:
                lines.append(
                    f"  timer {name:<28} n={s.count:<6} "
                    f"total={s.total_s * 1e3:9.2f} ms mean={s.mean_s * 1e3:8.3f} ms"
                )
    if len(lines) == 1:
        lines.append("(empty)")
    return "\n".join(lines)


def export_run(
    out_dir: str | Path,
    tracer: Tracer | None = None,
    registry: MetricsRegistry | None = None,
) -> dict[str, Path]:
    """Write the full artifact set for one run into ``out_dir``.

    Produces ``trace.json`` (Perfetto-loadable, sim + wall tracks),
    ``span_tree.json`` (sim-only, deterministic), ``events.jsonl``
    and ``metrics.prom``; absent inputs skip their files.  Returns
    the written paths keyed by artifact name.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    if tracer is not None:
        trace_path = out / "trace.json"
        trace_path.write_text(
            json.dumps(chrome_trace(tracer), sort_keys=True, indent=1) + "\n"
        )
        written["trace"] = trace_path
        tree_path = out / "span_tree.json"
        tree_path.write_text(span_tree_json(tracer))
        written["span_tree"] = tree_path
        events_path = out / "events.jsonl"
        events_path.write_text(events_jsonl(tracer))
        written["events"] = events_path
        timeline = state_timeline_jsonl(tracer)
        if timeline:
            timeline_path = out / "state_timeline.jsonl"
            timeline_path.write_text(timeline)
            written["state_timeline"] = timeline_path
    if registry is not None and not registry.empty:
        prom_path = out / "metrics.prom"
        prom_path.write_text(prometheus_text(registry))
        written["metrics"] = prom_path
    return written
