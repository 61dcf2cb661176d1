"""Per-wavelength SNR trace synthesis.

A trace is the sum of four components, floored at the measurement limit:

``snr(t) = baseline + wander(t) + noise(t) - event_penalties(t)``

* **baseline** — the physical operating point of the wavelength, from the
  line-system budget (:mod:`repro.optics.fiber`) plus per-wavelength
  ripple across the DWDM grid;
* **wander** — a slow sinusoidal seasonal/thermal drift (fraction of a
  dB to ~1 dB peak);
* **noise** — stationary AR(1) measurement/polarisation noise at the
  15-minute cadence;
* **event penalties** — the rare dips of :mod:`repro.telemetry.events`;
  loss-of-light pins the sample to the floor.

Receivers cannot report SNR below the DSP's measurement limit, so traces
are clipped at :data:`MEASUREMENT_FLOOR_DB` (0 dB) — which is why the
paper's Figure 4c axis starts at 0.

The controller runs read a fleet's traces through a
:class:`TelemetryFeed`, which checks that they share one grid and
streams :class:`TelemetrySample` grid points on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.optics.impairments import Impairment, ImpairmentScope
from repro.telemetry.timebase import Timebase

#: Lowest SNR a coherent receiver reports; loss of light reads as this.
MEASUREMENT_FLOOR_DB = 0.0


@dataclass(frozen=True)
class NoiseModel:
    """Stationary fluctuation model shared by the wavelengths of a cable.

    Attributes:
        sigma_db: standard deviation of the AR(1) noise, dB.
        rho: lag-1 autocorrelation at the sampling cadence.
        wander_amplitude_db: peak amplitude of the seasonal sinusoid.
        wander_period_days: period of the seasonal sinusoid.
    """

    sigma_db: float = 0.15
    rho: float = 0.9
    wander_amplitude_db: float = 0.3
    wander_period_days: float = 365.25

    def __post_init__(self) -> None:
        if self.sigma_db < 0:
            raise ValueError("noise sigma must be non-negative")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must be in [0, 1)")
        if self.wander_amplitude_db < 0:
            raise ValueError("wander amplitude must be non-negative")
        if self.wander_period_days <= 0:
            raise ValueError("wander period must be positive")


@dataclass(frozen=True)
class SnrTrace:
    """One wavelength's SNR time series plus its provenance."""

    link_id: str
    cable_name: str
    timebase: Timebase
    snr_db: np.ndarray
    baseline_db: float
    events: tuple[Impairment, ...]

    def __post_init__(self) -> None:
        if len(self.snr_db) != self.timebase.n_samples:
            raise ValueError(
                f"trace length {len(self.snr_db)} does not match "
                f"timebase with {self.timebase.n_samples} samples"
            )

    def __len__(self) -> int:
        return len(self.snr_db)

    @property
    def min_db(self) -> float:
        return float(self.snr_db.min())



def iter_link_samples(
    traces_by_link: Mapping[str, SnrTrace],
    *,
    timebase: Timebase | None = None,
    stride: int = 1,
    max_samples: int | None = None,
) -> Iterator[tuple[int, float, dict[str, float]]]:
    """Stream ``(index, time_s, snr_by_link)`` one grid point at a time.

    This is the per-sample view replay-style consumers (the controller
    runs) walk: each yielded dict is built on demand, so a multi-year
    corpus is never expanded into per-sample dicts up front.  ``stride``
    subsamples the grid (every ``stride``-th point), ``max_samples``
    caps how many points are yielded.

    ``timebase`` defaults to the first trace's; callers that already
    validated a shared grid (:class:`TelemetryFeed`) pass it explicitly.
    """
    if not traces_by_link:
        raise ValueError("need at least one trace")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if timebase is None:
        timebase = next(iter(traces_by_link.values())).timebase
    indices: Iterator[int] | range = range(0, timebase.n_samples, stride)
    if max_samples is not None:
        indices = list(indices)[:max_samples]
    for index in indices:
        yield (
            index,
            timebase.start_s + index * timebase.interval_s,
            {
                link_id: float(trace.snr_db[index])
                for link_id, trace in traces_by_link.items()
            },
        )


@dataclass(frozen=True)
class TelemetrySample:
    """The fleet's SNR at one telemetry grid point."""

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


def _ar1_noise(
    n_samples: int, n_series: int, sigma: float, rho: float, rng: np.random.Generator
) -> np.ndarray:
    """Stationary AR(1) noise, shape (n_series, n_samples).

    Implemented as an IIR filter over white innovations with the initial
    filter state drawn from the stationary distribution, so there is no
    burn-in transient at the start of a trace.
    """
    # scipy.signal costs ~0.9 s to import; only trace synthesis needs it
    from scipy.signal import lfilter

    if sigma == 0.0:
        return np.zeros((n_series, n_samples))
    innovations = rng.standard_normal((n_series, n_samples))
    y_prev = rng.standard_normal(n_series)  # stationary (unit-variance) start
    if rho == 0.0:
        # white noise: the filter is the identity (y_prev only feeds the
        # zero-weight initial state, but must still be drawn so the rng
        # stream stays identical to the filtered path)
        return sigma * innovations
    scale = np.sqrt(1.0 - rho * rho)
    zi = (rho * y_prev)[:, None]
    out, _ = lfilter([scale], [1.0, -rho], innovations, axis=1, zi=zi)
    return sigma * out


def _apply_events(
    snr: np.ndarray,
    events: list[Impairment],
    timebase: Timebase,
    wavelength_index: int | None,
) -> None:
    """Subtract event penalties in place.

    ``wavelength_index`` selects which row a WAVELENGTH-scope event hits;
    pass None when ``snr`` is a single row already selected.
    """
    for event in events:
        window = timebase.slice_between(event.start_s, event.end_s)
        if window.start == window.stop:
            continue
        penalty = event.snr_penalty_db
        if event.scope is ImpairmentScope.CABLE:
            rows: slice | int = slice(None)
        else:
            rows = wavelength_index if wavelength_index is not None else 0
        if np.isinf(penalty):
            snr[rows, window] = MEASUREMENT_FLOOR_DB - 100.0  # clipped later
        else:
            snr[rows, window] -= penalty


def synthesize_cable_traces(
    cable_name: str,
    baselines_db: np.ndarray,
    timebase: Timebase,
    cable_events: list[Impairment],
    wavelength_events: dict[int, list[Impairment]],
    noise: NoiseModel,
    rng: np.random.Generator,
) -> list[SnrTrace]:
    """Generate SNR traces for every wavelength of one cable.

    Args:
        cable_name: identifier used in link ids (``{cable}:w{idx}``).
        baselines_db: per-wavelength baseline SNR, shape (n_wavelengths,).
        timebase: sampling grid.
        cable_events: impairments hitting all wavelengths together.
        wavelength_events: impairments per wavelength index.
        noise: stationary fluctuation model.
        rng: source of randomness for noise and wander phase.

    Cable-level events land on all rows at the same samples — this is the
    correlated-dip structure visible in the paper's Figure 1.
    """
    baselines = np.asarray(baselines_db, dtype=float)
    if baselines.ndim != 1 or baselines.size == 0:
        raise ValueError("baselines_db must be a non-empty 1-D array")
    n_wave = baselines.size
    n = timebase.n_samples

    snr = np.tile(baselines[:, None], (1, n))
    snr += _ar1_noise(n, n_wave, noise.sigma_db, noise.rho, rng)

    if noise.wander_amplitude_db > 0:
        t_days = timebase.times_s() / 86_400.0
        phase = rng.uniform(0.0, 2.0 * np.pi)
        wander = noise.wander_amplitude_db * np.sin(
            2.0 * np.pi * t_days / noise.wander_period_days + phase
        )
        snr += wander[None, :]

    _apply_events(snr, cable_events, timebase, wavelength_index=None)
    for idx, events in wavelength_events.items():
        if not 0 <= idx < n_wave:
            raise ValueError(f"wavelength index {idx} out of range 0..{n_wave - 1}")
        _apply_events(snr, events, timebase, wavelength_index=idx)

    np.clip(snr, MEASUREMENT_FLOOR_DB, None, out=snr)

    all_events_sorted = sorted(cable_events, key=lambda e: e.start_s)
    traces = []
    for idx in range(n_wave):
        own = sorted(
            all_events_sorted + wavelength_events.get(idx, []),
            key=lambda e: e.start_s,
        )
        traces.append(
            SnrTrace(
                link_id=f"{cable_name}:w{idx:03d}",
                cable_name=cable_name,
                timebase=timebase,
                snr_db=snr[idx],
                baseline_db=float(baselines[idx]),
                events=tuple(own),
            )
        )
    return traces
