"""A deterministic discrete-event simulation kernel.

The BVT testbed runs on it: its handlers advance the shared clock
through each reconfiguration, past later same-time events that must
still drain in order.  The controller runs, the ticket what-if and the
cable fail-vs-flap drill walk their inputs in plain loops and build no
engine.

Determinism is the design constraint everything else bends to:

* the timeline is a priority queue ordered by ``(time, priority,
  insertion sequence)``, so same-time events dispatch in a total,
  reproducible order;
* randomness comes from :func:`repro.seeds.component_rng` keyed on
  ``(seed, component)`` — two scenarios sharing an engine can never
  alias each other's streams;
* event *sources* (:mod:`repro.engine.sources`) are merged lazily: the
  engine holds one pending event per source and pulls the next only
  after dispatching it, so a long stream is consumed incrementally,
  never materialized.

Handlers react to events by kind; observers see every dispatched event
and are the metrics/hook API (they must not mutate scenario state the
handlers depend on).  Handlers may :meth:`~Engine.schedule` more events
(timer-style) or :meth:`~Engine.publish` immediate notifications at the
current time — the testbed's reconfiguration completions.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Protocol

import numpy as np

from repro.engine.clock import SimClock
from repro.seeds import component_rng

#: reacts to one event kind; may schedule/publish follow-on events
Handler = Callable[["Event"], None]
#: sees every dispatched event, in order — the metrics hook
Observer = Callable[["Event"], None]


@dataclass(frozen=True)
class Event:
    """One timestamped occurrence on the timeline.

    ``priority`` breaks ties among same-time events (lower runs first);
    ``seq`` is the engine-assigned insertion index breaking the
    remaining ties, making dispatch order total.
    """

    time_s: float
    kind: str
    payload: Any = None
    priority: int = 0
    seq: int = -1


class EventSource(Protocol):
    """A time-ordered stream of events, consumed lazily by the engine."""

    def events(self) -> Iterator[Event]: ...


@dataclass
class EngineStats:
    """What one :meth:`Engine.run` dispatched."""

    n_events: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)
    first_time_s: float | None = None
    last_time_s: float | None = None
    #: observer callbacks that raised (isolated, never felt by handlers)
    n_observer_errors: int = 0

    def record(self, event: Event) -> None:
        self.n_events += 1
        self.by_kind[event.kind] = self.by_kind.get(event.kind, 0) + 1
        if self.first_time_s is None:
            self.first_time_s = event.time_s
        self.last_time_s = event.time_s


class Engine:
    """The deterministic event loop the BVT testbed runs on."""

    def __init__(self, *, clock: SimClock | None = None, seed: int = 0):
        self.clock = clock if clock is not None else SimClock()
        self.seed = seed
        self.stats = EngineStats()
        self._heap: list[tuple[float, int, int, Event, int | None]] = []
        self._next_seq = 0
        self._handlers: dict[str, list[Handler]] = {}
        self._observers: list[Observer] = []
        self._sources: list[Iterator[Event]] = []
        self._source_horizon: list[float] = []
        self._rngs: dict[str, np.random.Generator] = {}

    # -- randomness ---------------------------------------------------------

    def rng(self, component: str) -> np.random.Generator:
        """The component-keyed generator (memoized per component)."""
        if component not in self._rngs:
            self._rngs[component] = component_rng(self.seed, component)
        return self._rngs[component]

    # -- wiring -------------------------------------------------------------

    def subscribe(self, kind: str, handler: Handler) -> None:
        """Run ``handler`` for every dispatched event of ``kind``."""
        self._handlers.setdefault(kind, []).append(handler)

    def add_observer(self, observer: Observer) -> None:
        """Run ``observer`` after the handlers of *every* event."""
        self._observers.append(observer)

    def add_source(self, source: EventSource) -> None:
        """Merge a lazy, time-ordered event stream into the timeline."""
        iterator = iter(source.events())
        index = len(self._sources)
        self._sources.append(iterator)
        self._source_horizon.append(float("-inf"))
        self._pull(index)

    def _pull(self, source_index: int) -> None:
        try:
            event = next(self._sources[source_index])
        except StopIteration:
            return
        if event.time_s < self._source_horizon[source_index]:
            raise ValueError(
                f"event source #{source_index} went backwards in time: "
                f"{event.kind!r} at t={event.time_s} after "
                f"t={self._source_horizon[source_index]}"
            )
        self._source_horizon[source_index] = event.time_s
        self._push(event, source_index)

    def _push(self, event: Event, source_index: int | None) -> Event:
        stamped = (
            event
            if event.seq >= 0
            else Event(
                event.time_s, event.kind, event.payload,
                event.priority, self._next_seq,
            )
        )
        self._next_seq += 1
        heapq.heappush(
            self._heap,
            (stamped.time_s, stamped.priority, stamped.seq, stamped, source_index),
        )
        return stamped

    # -- emitting -----------------------------------------------------------

    def schedule(
        self, time_s: float, kind: str, payload: Any = None, *, priority: int = 0
    ) -> Event:
        """Enqueue an event for later dispatch (timer semantics).

        Scheduling strictly in the past is rejected; scheduling *at* the
        current time is allowed and dispatches after everything already
        queued for that instant.
        """
        if time_s < self.clock.now_s:
            raise ValueError(
                f"cannot schedule {kind!r} at t={time_s} in the past "
                f"(now: t={self.clock.now_s})"
            )
        return self._push(Event(float(time_s), kind, payload, priority), None)

    def publish(self, kind: str, payload: Any = None) -> Event:
        """Dispatch a notification immediately, at the current time.

        This is how derived occurrences — BVT reconfiguration
        completions — get onto the timeline without a round-trip
        through the queue: handlers and observers see them
        synchronously, in causal order.
        """
        event = Event(
            self.clock.now_s, kind, payload, priority=0, seq=self._next_seq
        )
        self._next_seq += 1
        self._dispatch(event)
        return event

    # -- the loop -----------------------------------------------------------

    def _dispatch(self, event: Event) -> None:
        self.stats.record(event)
        for handler in self._handlers.get(event.kind, ()):
            handler(event)
        for observer in self._observers:
            # Observers are the passive metrics/tracing hook: one
            # raising must not disturb the timeline, the remaining
            # observers, or scenario state.  Failures are counted, not
            # propagated.
            try:
                observer(event)
            except Exception:
                self.stats.n_observer_errors += 1

    def run(
        self, *, until_s: float | None = None, max_events: int | None = None
    ) -> EngineStats:
        """Dispatch queued/sourced events in timeline order.

        Args:
            until_s: stop before dispatching any event strictly after
                this time (inclusive horizon).
            max_events: stop after dispatching this many events.

        The clock advances to each event's timestamp before its handlers
        run — unless a handler already advanced it further (hardware
        models own their own elapsed time), in which case time simply
        does not move backward.
        """
        dispatched = 0
        while self._heap:
            if max_events is not None and dispatched >= max_events:
                break
            time_s = self._heap[0][0]
            if until_s is not None and time_s > until_s:
                break
            _, _, _, event, source_index = heapq.heappop(self._heap)
            self.clock.advance_to(event.time_s)
            self._dispatch(event)
            dispatched += 1
            if source_index is not None:
                self._pull(source_index)
        return self.stats
