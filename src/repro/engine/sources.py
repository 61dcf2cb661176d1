"""Pluggable event sources for the engine timeline.

Each source is a lazy, time-ordered iterator of :class:`Event`s; the
engine merges them with the scheduled queue one pending event at a
time, so even a 2.5-year telemetry corpus streams through sample by
sample instead of being materialized into per-sample dicts up front.

The stock sources cover the timed scenarios the engine hosts (the
controller replay, the reaction-lag study and the BVT testbed):

* :class:`TelemetrySource` — one ``telemetry.sample`` event per grid
  point of a validated trace set (:class:`TelemetryFeed`);
* :class:`ScheduledRounds` — ``te.round`` events every TE interval,
  carrying the telemetry sample the controller should see;
* :class:`SequenceSource` — a deterministic fan-out of scenario items
  (the testbed's ladder targets) at a fixed timestamp;
* :class:`EwmaAlarmMonitor` — not an iterator but a stateful helper
  that turns per-sample detector updates into published
  ``anomaly.alarm`` events.

BVT reconfiguration completions are *published* by the hardware-facing
handlers themselves (see :mod:`repro.bvt.testbed`): their timing is
drawn during execution, so they cannot be pre-scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro.engine.kernel import Engine, Event
from repro.telemetry.timebase import Timebase
from repro.telemetry.traces import SnrTrace, iter_link_samples


@dataclass(frozen=True)
class TelemetrySample:
    """Payload of one telemetry grid point."""

    index: int
    time_s: float
    snr_db: dict[str, float]


class TelemetryFeed:
    """A validated, streamable view over one fleet's SNR traces.

    Ingestion is guarded up front, with errors that name the offending
    link — mismatched or unsorted per-link timebases used to surface as
    opaque numpy indexing failures deep inside a replay.
    """

    def __init__(self, traces_by_link: Mapping[str, SnrTrace]):
        if not traces_by_link:
            raise ValueError("need at least one trace")
        self.traces_by_link = dict(traces_by_link)
        ref_link, ref_trace = next(iter(self.traces_by_link.items()))
        for link_id, trace in self.traces_by_link.items():
            if trace.timebase != ref_trace.timebase:
                raise ValueError(
                    "all traces must share one timebase: link "
                    f"{link_id!r} has {trace.timebase}, but link "
                    f"{ref_link!r} has {ref_trace.timebase}"
                )
            if len(trace.snr_db) != trace.timebase.n_samples:
                raise ValueError(
                    f"link {link_id!r} has {len(trace.snr_db)} samples "
                    f"for a timebase of {trace.timebase.n_samples}"
                )
        self.timebase = ref_trace.timebase

    @classmethod
    def from_series(
        cls,
        series_by_link: Mapping[str, tuple[Sequence[float], Sequence[float]]],
        *,
        cable_name: str = "ingest",
    ) -> "TelemetryFeed":
        """Build a feed from raw ``link -> (times_s, snr_db)`` arrays.

        This is the external-data ingestion path (operator telemetry
        dumps); every per-link timebase is checked before anything
        touches the arrays:

        * times must be strictly increasing (unsorted dumps are a real
          failure mode of concatenated exports);
        * times must be uniformly spaced (the grid every analysis
          assumes);
        * every link must share the first link's grid exactly.
        """
        if not series_by_link:
            raise ValueError("need at least one trace")
        ref_link: str | None = None
        ref_times: np.ndarray | None = None
        timebase: Timebase | None = None
        traces: dict[str, SnrTrace] = {}
        for link_id, (times, values) in series_by_link.items():
            t = np.asarray(times, dtype=float)
            v = np.asarray(values, dtype=float)
            if t.ndim != 1 or t.size == 0:
                raise ValueError(f"link {link_id!r}: empty or non-1-D time axis")
            if v.shape != t.shape:
                raise ValueError(
                    f"link {link_id!r}: {v.size} samples for {t.size} timestamps"
                )
            if not np.all(np.isfinite(t)):
                bad = int(np.argmax(~np.isfinite(t)))
                raise ValueError(
                    f"link {link_id!r}: non-finite sample time at index "
                    f"{bad} ({t[bad]}); NaN timestamps would silently "
                    "bypass the ordering checks"
                )
            diffs = np.diff(t)
            if np.any(diffs <= 0):
                bad = int(np.argmax(diffs <= 0))
                raise ValueError(
                    f"link {link_id!r}: sample times are not strictly "
                    f"increasing (first violation at index {bad + 1}: "
                    f"{t[bad]} -> {t[bad + 1]})"
                )
            if diffs.size and not np.allclose(diffs, diffs[0]):
                raise ValueError(
                    f"link {link_id!r}: sample times are not uniformly "
                    "spaced; resample onto the fleet grid first"
                )
            if ref_times is None:
                ref_link, ref_times = link_id, t
                interval = float(diffs[0]) if diffs.size else 900.0
                timebase = Timebase(
                    n_samples=t.size, interval_s=interval, start_s=float(t[0])
                )
            elif t.shape != ref_times.shape or not np.array_equal(t, ref_times):
                raise ValueError(
                    "all traces must share one timebase: link "
                    f"{link_id!r} does not match the grid of link {ref_link!r}"
                )
            assert timebase is not None
            # NaN readings (dropouts) are legitimate payload; the
            # baseline must come from the finite samples only
            finite = v[np.isfinite(v)]
            traces[link_id] = SnrTrace(
                link_id=link_id,
                cable_name=cable_name,
                timebase=timebase,
                snr_db=v,
                baseline_db=float(np.median(finite)) if finite.size else 0.0,
                events=(),
            )
        return cls(traces)

    @property
    def n_samples(self) -> int:
        return self.timebase.n_samples

    def sample(self, index: int) -> TelemetrySample:
        """The fleet's SNR dict at one grid point (trace insertion order)."""
        return TelemetrySample(
            index=index,
            time_s=self.timebase.start_s + index * self.timebase.interval_s,
            snr_db={
                link_id: float(trace.snr_db[index])
                for link_id, trace in self.traces_by_link.items()
            },
        )

    def iter_samples(
        self, *, stride: int = 1, max_samples: int | None = None
    ) -> Iterator[TelemetrySample]:
        """Stream samples without materializing the whole horizon.

        Scheduled-round access (``stride`` > 1: one TE round every N
        telemetry points) takes a batch path: each trace's strided
        samples are gathered with one numpy indexing operation into an
        (n_links, n_rounds) block — small, because rounds subsample the
        grid — instead of one scalar fancy-read per (link, round).
        Values and dict order are identical to the per-sample path.
        """
        if stride > 1:
            index_list = list(range(0, self.timebase.n_samples, stride))
            if max_samples is not None:
                index_list = index_list[:max_samples]
            if not index_list:
                return
            link_ids = list(self.traces_by_link)
            idx = np.asarray(index_list, dtype=np.int64)
            columns = np.stack(
                [
                    np.asarray(self.traces_by_link[l].snr_db, dtype=float)[idx]
                    for l in link_ids
                ]
            )
            for j, index in enumerate(index_list):
                yield TelemetrySample(
                    index=index,
                    time_s=self.timebase.start_s
                    + index * self.timebase.interval_s,
                    snr_db=dict(zip(link_ids, columns[:, j].tolist())),
                )
            return
        for index, time_s, snrs in iter_link_samples(
            self.traces_by_link,
            timebase=self.timebase,
            stride=stride,
            max_samples=max_samples,
        ):
            yield TelemetrySample(index=index, time_s=time_s, snr_db=snrs)


class TelemetrySource:
    """Every telemetry grid point as a ``telemetry.sample`` event."""

    KIND = "telemetry.sample"

    def __init__(self, feed: TelemetryFeed):
        self.feed = feed

    def events(self) -> Iterator[Event]:
        for sample in self.feed.iter_samples():
            yield Event(sample.time_s, self.KIND, sample)


class ScheduledRounds:
    """Scheduled TE recomputation rounds as ``te.round`` events.

    Each event carries the telemetry sample the controller sees at that
    round — the SWAN-style minutes-to-hours cadence of the paper.
    """

    KIND = "te.round"

    def __init__(
        self,
        feed: TelemetryFeed,
        *,
        te_interval_s: float,
        max_rounds: int | None = None,
    ):
        if te_interval_s < feed.timebase.interval_s:
            raise ValueError("TE interval cannot be finer than the telemetry")
        self.feed = feed
        self.stride = max(int(te_interval_s // feed.timebase.interval_s), 1)
        self.max_rounds = max_rounds

    def events(self) -> Iterator[Event]:
        for sample in self.feed.iter_samples(
            stride=self.stride, max_samples=self.max_rounds
        ):
            yield Event(sample.time_s, self.KIND, sample)


class SequenceSource:
    """Scenario items dispatched one by one at a fixed timestamp.

    The testbed's ladder targets use it: each handler advances the
    shared clock through a reconfiguration, so the items need the
    engine's clock even though they all start at one timestamp.
    """

    def __init__(self, kind: str, items: Sequence[Any], *, time_s: float = 0.0):
        self.kind = kind
        self.items = list(items)
        self.time_s = float(time_s)

    def events(self) -> Iterator[Event]:
        for index, item in enumerate(self.items):
            yield Event(self.time_s, self.kind, (index, item))


class EwmaAlarmMonitor:
    """Per-link EWMA dip detectors publishing ``anomaly.alarm`` events.

    Feed it every telemetry sample; it updates one
    :class:`~repro.telemetry.anomaly.EwmaDipDetector` per link (created
    lazily, in trace order) and returns the set of links currently in a
    dip.  On the sample where a link *enters* a dip, an
    ``anomaly.alarm`` event is published at the current engine time —
    the proactive mode's trigger.
    """

    KIND = "anomaly.alarm"

    def __init__(self, link_ids: Sequence[str], *, k_sigma: float = 5.0):
        from repro.telemetry.anomaly import EwmaDipDetector

        self._k_sigma = k_sigma
        self._detectors = {
            link_id: EwmaDipDetector(k_sigma=k_sigma) for link_id in link_ids
        }
        self._dipping: set[str] = set()

    @property
    def n_skipped(self) -> int:
        """Non-finite samples skipped across all links (dropouts)."""
        return sum(d.n_skipped for d in self._detectors.values())

    def observe(self, engine: Engine | None, sample: TelemetrySample) -> set[str]:
        """Update every detector; returns links currently in a dip.

        Tolerates degraded telemetry: a link missing from the monitor
        gets a detector on first sight, and NaN readings are skipped
        and counted by the per-link detectors (see
        :meth:`~repro.telemetry.anomaly.EwmaDipDetector.update`) rather
        than corrupting their EWMA state.
        """
        from repro.telemetry.anomaly import EwmaDipDetector, SignalState

        in_dip: set[str] = set()
        for link_id, snr in sample.snr_db.items():
            detector = self._detectors.get(link_id)
            if detector is None:
                detector = EwmaDipDetector(k_sigma=self._k_sigma)
                self._detectors[link_id] = detector
            detector.update(snr, sample.index)
            if detector.state is SignalState.DIP:
                in_dip.add(link_id)
        if engine is not None:
            for link_id in sorted(in_dip - self._dipping):
                engine.publish(
                    self.KIND,
                    {"link_id": link_id, "index": sample.index,
                     "snr_db": sample.snr_db[link_id]},
                )
        self._dipping = in_dip
        return in_dip
