"""Structured, dual-clocked tracing: spans, point events, timelines.

A :class:`Tracer` records *what happened when* inside one run:

* **spans** — named, nested intervals (a TE solve, a BVT
  reconfiguration, a whole scenario) with free-form attributes;
* **point events** — instantaneous occurrences (a retry, a fault
  activation, a state transition, every event the testbed's engine
  dispatches).

Everything is **dual-clocked**.  Simulated time comes from a bound
clock (any object with ``now_s``: a controller run binds its own
:class:`~repro.engine.clock.SimClock` for the run through
:func:`sim_clock`, the testbed's engine its clock through
:meth:`Tracer.observe`); wall time comes from ``time.perf_counter``.
The sim-time side of a trace is fully deterministic for a fixed seed;
the wall-time side is the profiling view.  Exporters (:mod:`repro.obs.export`) keep the two on separate
tracks so CI can strip the wall clock and byte-diff the rest.

Determinism contract: the tracer only *reads*.  It draws no
randomness, never mutates scenario state, and attaches to the engine
through the observer hook (:meth:`Tracer.observe` →
:meth:`~repro.engine.kernel.Engine.add_observer`), which runs after the
handlers of every event and cannot reorder them; a plain-loop run only
opens spans and reads its clock.  The golden suite runs all five
committed scenarios with tracing on and demands byte-identical results.

Enablement is ambient, like :func:`repro.obs.metrics.isolated`: code under
``with tracing(tracer):`` sees the tracer through
:func:`current_tracer`; instrumented call sites go through the
module-level :func:`span` / :func:`point` helpers, which collapse to a
shared no-op context manager when no tracer is active — the disabled
cost is one thread-local read per instrumented site.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

_PAYLOAD_SCHEMA = 1


@dataclass
class Span:
    """One named interval, possibly nested under a parent span."""

    span_id: int
    parent_id: int | None
    name: str
    seq: int
    sim_start_s: float | None
    wall_start_s: float
    attrs: dict[str, Any] = field(default_factory=dict)
    sim_end_s: float | None = None
    wall_end_s: float | None = None

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes on an open or closed span."""
        self.attrs.update(attrs)
        return self

    @property
    def sim_duration_s(self) -> float | None:
        if self.sim_start_s is None or self.sim_end_s is None:
            return None
        return self.sim_end_s - self.sim_start_s

    @property
    def wall_duration_s(self) -> float | None:
        if self.wall_end_s is None:
            return None
        return self.wall_end_s - self.wall_start_s


@dataclass(frozen=True)
class PointEvent:
    """One instantaneous occurrence."""

    name: str
    seq: int
    sim_time_s: float | None
    wall_time_s: float
    attrs: dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Recorder for one run's spans and point events.

    ``clock`` is the simulated-time source (anything with a ``now_s``
    attribute); it can also be bound later — for one run by
    :func:`sim_clock`, or by :meth:`observe`, which adopts the engine's
    clock.  Without a clock the sim-time fields are ``None`` and only
    the wall clock ticks.
    """

    def __init__(self, *, clock: Any | None = None):
        self._clock = clock
        self.spans: list[Span] = []
        self.events: list[PointEvent] = []
        #: engines this tracer observes (their ``stats`` feed the run
        #: summary's engine line — event counts, observer errors)
        self.engines: list[Any] = []
        self._stack: list[Span] = []
        self._next_seq = 0
        #: wall epoch all wall timestamps are reported relative to
        self.wall_epoch_s = time.perf_counter()

    # -- clock binding -----------------------------------------------------

    def bind_clock(self, clock: Any) -> None:
        """Adopt ``clock`` (with ``now_s``) as the sim-time source."""
        self._clock = clock

    def _sim_now(self) -> float | None:
        return float(self._clock.now_s) if self._clock is not None else None

    def _wall_now(self) -> float:
        return time.perf_counter() - self.wall_epoch_s

    def _seq(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a nested span around the enclosed block.

        Yields the :class:`Span` so the block can
        :meth:`~Span.set` outcome attributes before it closes.
        """
        span = Span(
            span_id=len(self.spans),
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            seq=self._seq(),
            sim_start_s=self._sim_now(),
            wall_start_s=self._wall_now(),
            attrs=dict(attrs),
        )
        self.spans.append(span)  # pre-order: parents before children
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.sim_end_s = self._sim_now()
            span.wall_end_s = self._wall_now()

    def point(self, name: str, **attrs: Any) -> PointEvent:
        """Record an instantaneous event at the current time."""
        event = PointEvent(
            name=name,
            seq=self._seq(),
            sim_time_s=self._sim_now(),
            wall_time_s=self._wall_now(),
            attrs=dict(attrs),
        )
        self.events.append(event)
        return event

    # -- engine attachment -------------------------------------------------

    def observe(self, engine: Any) -> None:
        """Meter every event ``engine`` dispatches, non-invasively.

        Registers an observer (observers run after the handlers of
        every event and must not mutate scenario state — this one only
        appends to the trace) and adopts the engine's clock if no
        sim-time source is bound yet.
        """
        if self._clock is None:
            self.bind_clock(engine.clock)
        self.engines.append(engine)
        engine.add_observer(self._on_engine_event)

    def _on_engine_event(self, event: Any) -> None:
        self.events.append(
            PointEvent(
                name=event.kind,
                seq=self._seq(),
                sim_time_s=float(event.time_s),
                wall_time_s=self._wall_now(),
                attrs={"engine_seq": event.seq, "priority": event.priority},
            )
        )

    # -- reading -----------------------------------------------------------

    def span_tree(self) -> list[dict[str, Any]]:
        """The nested, sim-time-only view of the spans.

        Wall-clock fields are deliberately absent: for a fixed seed
        this structure is byte-stable across runs, which is what CI's
        ``determinism`` job diffs across two processes.
        """
        nodes: dict[int, dict[str, Any]] = {}
        roots: list[dict[str, Any]] = []
        for span in self.spans:
            node = {
                "name": span.name,
                "sim_start_s": span.sim_start_s,
                "sim_end_s": span.sim_end_s,
                "attrs": dict(span.attrs),
                "children": [],
            }
            nodes[span.span_id] = node
            if span.parent_id is None:
                roots.append(node)
            else:
                nodes[span.parent_id]["children"].append(node)
        return roots

    # -- payload round-trip ------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        """Plain-JSON serialization (for worker -> parent shipping).

        Attribute values are passed through ``repr`` unless they are
        already JSON scalars, so a payload never fails to serialize on
        an exotic attribute.
        """

        def clean(attrs: Mapping[str, Any]) -> dict[str, Any]:
            return {
                k: v if isinstance(v, (str, int, float, bool, type(None))) else repr(v)
                for k, v in attrs.items()
            }

        return {
            "schema": _PAYLOAD_SCHEMA,
            "spans": [
                {
                    "span_id": s.span_id,
                    "parent_id": s.parent_id,
                    "name": s.name,
                    "seq": s.seq,
                    "sim_start_s": s.sim_start_s,
                    "sim_end_s": s.sim_end_s,
                    "wall_start_s": s.wall_start_s,
                    "wall_end_s": s.wall_end_s,
                    "attrs": clean(s.attrs),
                }
                for s in self.spans
            ],
            "events": [
                {
                    "name": e.name,
                    "seq": e.seq,
                    "sim_time_s": e.sim_time_s,
                    "wall_time_s": e.wall_time_s,
                    "attrs": clean(e.attrs),
                }
                for e in self.events
            ],
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "Tracer":
        tracer = cls()
        for row in payload.get("spans", ()):
            tracer.spans.append(
                Span(
                    span_id=int(row["span_id"]),
                    parent_id=(
                        int(row["parent_id"]) if row["parent_id"] is not None else None
                    ),
                    name=str(row["name"]),
                    seq=int(row["seq"]),
                    sim_start_s=row["sim_start_s"],
                    wall_start_s=float(row["wall_start_s"]),
                    attrs=dict(row.get("attrs", {})),
                    sim_end_s=row["sim_end_s"],
                    wall_end_s=row["wall_end_s"],
                )
            )
        for row in payload.get("events", ()):
            tracer.events.append(
                PointEvent(
                    name=str(row["name"]),
                    seq=int(row["seq"]),
                    sim_time_s=row["sim_time_s"],
                    wall_time_s=float(row["wall_time_s"]),
                    attrs=dict(row.get("attrs", {})),
                )
            )
        tracer._next_seq = (
            max(
                [s.seq for s in tracer.spans] + [e.seq for e in tracer.events],
                default=-1,
            )
            + 1
        )
        return tracer


# ---------------------------------------------------------------------------
# ambient enablement
# ---------------------------------------------------------------------------

_active = threading.local()


class _NullSpan:
    """Reentrant no-op context manager: the disabled-tracing fast path."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> None:
        return None

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


def current_tracer() -> Tracer | None:
    """The active tracer of this thread, or ``None`` when disabled."""
    stack = getattr(_active, "stack", None)
    return stack[-1] if stack else None


@contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Make ``tracer`` the active tracer for the enclosed block.

    Nests (the innermost tracer wins) and is independent per thread,
    so pool workers in the thread-fallback mode cannot interleave
    their traces.
    """
    stack = getattr(_active, "stack", None)
    if stack is None:
        stack = _active.stack = []
    stack.append(tracer)
    try:
        yield tracer
    finally:
        stack.pop()


def span(name: str, **attrs: Any):
    """A span on the active tracer — or a shared no-op when disabled.

    The yielded value is the :class:`Span` (so call sites can
    ``sp.set(...)`` outcomes) or ``None`` when tracing is off; the
    no-op path allocates nothing.
    """
    tracer = current_tracer()
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


def point(name: str, **attrs: Any) -> PointEvent | None:
    """A point event on the active tracer — no-op when disabled."""
    tracer = current_tracer()
    if tracer is None:
        return None
    return tracer.point(name, **attrs)


@contextmanager
def sim_clock(clock: Any) -> Iterator[None]:
    """Read sim time from ``clock`` on the active tracer for the block.

    A controller run binds its own clock for its duration; the
    tracer's previous clock comes back on exit, so each of several runs
    under one tracer reports its own sim times.  No-op when off.
    """
    tracer = current_tracer()
    if tracer is None:
        yield
        return
    previous = tracer._clock
    tracer.bind_clock(clock)
    try:
        yield
    finally:
        tracer.bind_clock(previous)


def observe_engine(engine: Any) -> None:
    """Attach the active tracer (if any) to ``engine`` — no-op when off.

    The BVT testbed calls it right after constructing its
    :class:`~repro.engine.kernel.Engine`.
    """
    tracer = current_tracer()
    if tracer is not None:
        tracer.observe(engine)
