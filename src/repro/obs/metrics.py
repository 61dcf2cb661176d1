"""Labelled counters, gauges, histograms and summaries.

The :class:`MetricsRegistry` is the numeric half of :mod:`repro.obs`:
where the :class:`~repro.obs.trace.Tracer` answers *what happened
when*, the registry answers *how much, in total*.  Four metric
families, all addressable by ``(name, labels)``:

* **counter** — a monotonically increasing count (cache hits, faults
  applied, rounds executed);
* **gauge** — a last-written value (current link count, configured
  worker count);
* **histogram** — observations bucketed into *fixed* upper bounds, so
  two registries filled on different workers can be merged bucket by
  bucket without resampling;
* **summary** — count/total/min/max of a stream of durations
  (:meth:`Summary.time` times a block into one); these are the
  ``timers`` of the ``BENCH.json`` report (:func:`collect`,
  :func:`write_bench`).

Registries are **mergeable**: :meth:`MetricsRegistry.merge` folds
another registry in (counters add, histograms add bucket-wise,
summaries combine, gauges keep the incoming value), and the
payload round-trip (:meth:`to_payload` / :meth:`from_payload`) is
plain JSON so a sweep worker can ship its registry back to the parent
process.  Merged totals are independent of how points were sharded
over workers — the worker-count-invariance test pins that.

Instrumentation records into a process-wide *current* registry;
:func:`isolated` swaps in a fresh one for the enclosed block (per
thread, so pool workers in the thread-fallback mode cannot bleed into
each other).  The sweep runner wraps every run in it so back-to-back
runs in one process each report their own numbers.
"""

from __future__ import annotations

import json
import math
import os
import platform
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping

#: default histogram upper bounds (seconds-flavoured, but unit-free)
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

_PAYLOAD_SCHEMA = 1

#: ``BENCH.json`` report schema (see :func:`collect`)
BENCH_SCHEMA = 1


def timestamp_unix() -> float:
    """Now, unless ``SOURCE_DATE_EPOCH`` pins it (reproducible builds).

    CI jobs that byte-diff ``BENCH.json`` or trace artifacts set the
    standard ``SOURCE_DATE_EPOCH`` variable so the ``generated_unix``
    stamps cannot differ between two otherwise identical runs.
    """
    epoch = os.environ.get("SOURCE_DATE_EPOCH", "")
    if epoch:
        try:
            return float(int(epoch))
        except ValueError:
            pass
    return time.time()


LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def series_name(name: str, key: LabelKey) -> str:
    """Render ``name{k=v,...}`` — the flat key used in report dicts."""
    if not key:
        return name
    inner = ",".join(f"{k}={v}" for k, v in key)
    return f"{name}{{{inner}}}"


@dataclass
class Counter:
    """A monotonically increasing count."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += amount


@dataclass
class Gauge:
    """A last-written value."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount



@dataclass
class Histogram:
    """Fixed-bucket histogram (cumulative counts, Prometheus-style).

    ``buckets`` are the finite upper bounds; an implicit ``+Inf``
    bucket catches the rest.  Fixed bounds are what make two
    independently filled histograms mergeable.
    """

    buckets: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)
    inf_count: int = 0
    total: float = 0.0
    n: int = 0

    def __post_init__(self) -> None:
        if not self.buckets or list(self.buckets) != sorted(self.buckets):
            raise ValueError("histogram buckets must be sorted and non-empty")
        if not self.counts:
            self.counts = [0] * len(self.buckets)

    def observe(self, value: float) -> None:
        self.n += 1
        self.total += value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.inf_count += 1

    def as_dict(self) -> dict[str, Any]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "inf_count": self.inf_count,
            "total": self.total,
            "n": self.n,
        }


@dataclass
class Summary:
    """count/total/min/max aggregate of one timer-style stream.

    This is the ``BENCH.json`` timer aggregate; ``meta`` keeps the most
    recent record's free-form annotations (workers, cache state, ...).
    """

    count: int = 0
    total_s: float = 0.0
    min_s: float = math.inf
    max_s: float = 0.0
    meta: dict[str, Any] = field(default_factory=dict)

    def add(self, elapsed_s: float, meta: Mapping[str, Any] | None = None) -> None:
        if elapsed_s < 0:
            raise ValueError("elapsed time must be non-negative")
        self.count += 1
        self.total_s += elapsed_s
        self.min_s = min(self.min_s, elapsed_s)
        self.max_s = max(self.max_s, elapsed_s)
        if meta:
            self.meta = dict(meta)

    @contextmanager
    def time(self, **meta: Any) -> Iterator[None]:
        """Time the enclosed block (``perf_counter``) and :meth:`add` it.

        >>> reg = MetricsRegistry()
        >>> with reg.summary("doc.work").time(workers=2):
        ...     pass
        >>> reg.get_summary("doc.work").count, reg.get_summary("doc.work").meta
        (1, {'workers': 2})
        """
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(time.perf_counter() - start, meta)

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
            "meta": self.meta,
        }


class MetricsRegistry:
    """All four metric families, keyed by ``(name, sorted labels)``."""

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}
        self._summaries: dict[tuple[str, LabelKey], Summary] = {}

    # -- instruments -------------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_key(labels))
        if key not in self._counters:
            self._counters[key] = Counter()
        return self._counters[key]

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _label_key(labels))
        if key not in self._gauges:
            self._gauges[key] = Gauge()
        return self._gauges[key]

    def histogram(
        self, name: str, *, buckets: tuple[float, ...] | None = None, **labels: Any
    ) -> Histogram:
        key = (name, _label_key(labels))
        if key not in self._histograms:
            self._histograms[key] = Histogram(
                buckets=tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
            )
        elif buckets is not None and tuple(buckets) != self._histograms[key].buckets:
            raise ValueError(
                f"histogram {series_name(name, key[1])!r} already exists "
                f"with buckets {self._histograms[key].buckets}"
            )
        return self._histograms[key]

    def summary(self, name: str, **labels: Any) -> Summary:
        key = (name, _label_key(labels))
        if key not in self._summaries:
            self._summaries[key] = Summary()
        return self._summaries[key]

    # -- reading -----------------------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> float:
        counter = self._counters.get((name, _label_key(labels)))
        return counter.value if counter is not None else 0.0

    def counters(self) -> dict[str, float]:
        """Flat ``name{labels} -> value`` view, sorted by series name."""
        flat = {
            series_name(name, key): c.value
            for (name, key), c in self._counters.items()
        }
        return dict(sorted(flat.items()))

    def gauges(self) -> dict[str, float]:
        flat = {
            series_name(name, key): g.value
            for (name, key), g in self._gauges.items()
        }
        return dict(sorted(flat.items()))

    def summaries(self) -> dict[str, Summary]:
        flat = {
            series_name(name, key): s
            for (name, key), s in self._summaries.items()
        }
        return dict(sorted(flat.items()))

    def histograms(self) -> dict[str, Histogram]:
        flat = {
            series_name(name, key): h
            for (name, key), h in self._histograms.items()
        }
        return dict(sorted(flat.items()))

    def get_summary(self, name: str, **labels: Any) -> Summary | None:
        """Peek at a summary without creating it."""
        return self._summaries.get((name, _label_key(labels)))

    @property
    def empty(self) -> bool:
        return not (
            self._counters or self._gauges or self._histograms or self._summaries
        )

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._summaries.clear()

    # -- merging -----------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry; returns self.

        Counters and histogram buckets add, summaries combine their
        aggregates, gauges take the incoming value (last writer in
        merge order wins — use counters where merge-order independence
        matters).  Merging is associative and, for everything except
        gauges, commutative: a sweep's fleet-wide totals do not depend
        on how points were sharded over workers.
        """
        for key, counter in other._counters.items():
            name, labels = key
            self.counter(name, **dict(labels)).value += counter.value
        for key, gauge in other._gauges.items():
            name, labels = key
            self.gauge(name, **dict(labels)).value = gauge.value
        for key, hist in other._histograms.items():
            mine = self._histograms.get(key)
            if mine is None:
                name, labels = key
                mine = self.histogram(
                    name, buckets=hist.buckets, **dict(labels)
                )
            elif mine.buckets != hist.buckets:
                raise ValueError(
                    f"cannot merge histogram {series_name(*key)!r}: "
                    f"bucket bounds differ ({mine.buckets} vs {hist.buckets})"
                )
            for i, c in enumerate(hist.counts):
                mine.counts[i] += c
            mine.inf_count += hist.inf_count
            mine.total += hist.total
            mine.n += hist.n
        for key, summary in other._summaries.items():
            name, labels = key
            mine_s = self.summary(name, **dict(labels))
            mine_s.count += summary.count
            mine_s.total_s += summary.total_s
            mine_s.min_s = min(mine_s.min_s, summary.min_s)
            mine_s.max_s = max(mine_s.max_s, summary.max_s)
            if summary.meta:
                mine_s.meta = dict(summary.meta)
        return self

    # -- payload round-trip ------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        """Plain-JSON serialization (for worker -> parent shipping)."""

        def rows(table: dict, render) -> list[dict[str, Any]]:
            out = []
            for (name, labels) in sorted(table):
                row = {"name": name, "labels": [list(kv) for kv in labels]}
                row.update(render(table[(name, labels)]))
                out.append(row)
            return out

        return {
            "schema": _PAYLOAD_SCHEMA,
            "counters": rows(self._counters, lambda c: {"value": c.value}),
            "gauges": rows(self._gauges, lambda g: {"value": g.value}),
            "histograms": rows(self._histograms, Histogram.as_dict),
            "summaries": rows(
                self._summaries,
                lambda s: {
                    "count": s.count,
                    "total_s": s.total_s,
                    "min_s": s.min_s if s.count else 0.0,
                    "max_s": s.max_s,
                    "meta": dict(s.meta),
                },
            ),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "MetricsRegistry":
        registry = cls()
        for row in payload.get("counters", ()):
            labels = dict(tuple(kv) for kv in row["labels"])
            registry.counter(row["name"], **labels).value = float(row["value"])
        for row in payload.get("gauges", ()):
            labels = dict(tuple(kv) for kv in row["labels"])
            registry.gauge(row["name"], **labels).value = float(row["value"])
        for row in payload.get("histograms", ()):
            labels = dict(tuple(kv) for kv in row["labels"])
            hist = registry.histogram(
                row["name"], buckets=tuple(row["buckets"]), **labels
            )
            hist.counts = [int(c) for c in row["counts"]]
            hist.inf_count = int(row["inf_count"])
            hist.total = float(row["total"])
            hist.n = int(row["n"])
        for row in payload.get("summaries", ()):
            labels = dict(tuple(kv) for kv in row["labels"])
            summary = registry.summary(row["name"], **labels)
            summary.count = int(row["count"])
            summary.total_s = float(row["total_s"])
            summary.min_s = float(row["min_s"]) if summary.count else math.inf
            summary.max_s = float(row["max_s"])
            summary.meta = dict(row.get("meta", {}))
        return registry


#: Process-wide default registry.
REGISTRY = MetricsRegistry()

_isolation = threading.local()


def current() -> MetricsRegistry:
    """The registry instrumentation records into right now."""
    stack = getattr(_isolation, "stack", None)
    return stack[-1] if stack else REGISTRY


@contextmanager
def isolated(
    registry: MetricsRegistry | None = None,
) -> Iterator[MetricsRegistry]:
    """Route this thread's metrics into a fresh registry (nests)."""
    reg = registry if registry is not None else MetricsRegistry()
    stack = getattr(_isolation, "stack", None)
    if stack is None:
        stack = _isolation.stack = []
    stack.append(reg)
    try:
        yield reg
    finally:
        stack.pop()


def counter(name: str, **labels: Any) -> Counter:
    return current().counter(name, **labels)


def gauge(name: str, **labels: Any) -> Gauge:
    return current().gauge(name, **labels)


def histogram(
    name: str, *, buckets: tuple[float, ...] | None = None, **labels: Any
) -> Histogram:
    return current().histogram(name, buckets=buckets, **labels)


def summary(name: str, **labels: Any) -> Summary:
    return current().summary(name, **labels)


def collect(
    registry: MetricsRegistry | None = None,
    *,
    extra: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """The ``BENCH.json`` report over ``registry`` (default: current).

    Stable keys and plain JSON types: summaries under ``timers`` keyed
    by series name with count/total/mean/min/max, counters under
    ``events``; gauges and histograms appear as extra sections when
    present.  ``generated_unix`` honours ``SOURCE_DATE_EPOCH`` so two
    reports from identical runs byte-diff clean.
    """
    reg = registry if registry is not None else current()
    events: dict[str, Any] = {}
    for name, value in reg.counters().items():
        events[name] = int(value) if value == int(value) else value
    report: dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "generated_unix": timestamp_unix(),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "timers": {
            name: stat.as_dict() for name, stat in reg.summaries().items()
        },
        "events": events,
    }
    gauges = reg.gauges()
    if gauges:
        report["gauges"] = gauges
    histograms = reg.histograms()
    if histograms:
        report["histograms"] = {
            name: h.as_dict() for name, h in histograms.items()
        }
    if extra:
        report["extra"] = dict(extra)
    return report


def write_bench(
    path: str | Path = "BENCH.json",
    registry: MetricsRegistry | None = None,
    *,
    extra: Mapping[str, Any] | None = None,
) -> Path:
    """Persist :func:`collect` as indented JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(collect(registry, extra=extra), indent=2) + "\n")
    return path
