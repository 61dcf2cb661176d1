"""Backbone-scale synthetic telemetry dataset.

Builds the reproduction's stand-in for the paper's measurement corpus:
~55 fiber cables carrying ~2,000 wavelengths, each sampled every 15
minutes for 2.5 years.  Construction is fully deterministic given the
config seed.

Traces are generated *cable by cable* and reduced to
:class:`~repro.telemetry.stats.LinkSummary` records immediately, so the
full backbone never needs all raw traces in memory at once (a 2,000-link
corpus would be ~1.4 GB of float64 samples).

Two amortisation layers sit on top of the generator:

* **parallel synthesis** — cables are independently seeded (the rng key
  is ``(seed, crc32(name), offset)``, never shared state), so
  :meth:`BackboneDataset.summaries` and
  :meth:`BackboneDataset.iter_traces` accept a ``workers`` knob that
  fans cable jobs out over a process pool with bit-identical results;
* **an on-disk summary cache** (:mod:`repro.telemetry.cache`) —
  summaries are content-addressed by config + modulation table + code
  version, so repeat runs of benchmarks and examples skip synthesis
  entirely.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterator, TypeVar

import numpy as np

from repro.obs import metrics as _metrics
from repro.parallel import WORKERS_ENV, pool_map, resolve_workers
from repro.optics.fiber import FiberCable, LineSystem
from repro.optics.modulation import DEFAULT_MODULATIONS, ModulationTable
from repro.seeds import component_rng
from repro.telemetry import cache as summary_cache
from repro.telemetry.events import EventRates, EventSynthesizer, PAPER_EVENT_RATES
from repro.telemetry.stats import LinkSummary, summarize_trace
from repro.telemetry.timebase import Timebase
from repro.telemetry.traces import NoiseModel, SnrTrace, synthesize_cable_traces

_T = TypeVar("_T")

__all__ = [
    "WORKERS_ENV",
    "BackboneConfig",
    "BackboneDataset",
    "CableSpec",
    "high_quality_cable_spec",
]


@dataclass(frozen=True)
class CableSpec:
    """Static description of one fiber cable in the backbone.

    The per-wavelength SNR baseline is the line-system budget minus the
    cable's quality penalty (aging, splices, high-loss sections) plus a
    fixed per-wavelength ripple across the DWDM grid.
    """

    name: str
    n_wavelengths: int
    n_spans: int
    span_length_km: float = 80.0
    launch_power_dbm: float = 0.0
    quality_penalty_db: float = 0.0
    ripple_db: tuple[float, ...] = ()
    noise: NoiseModel = field(default_factory=NoiseModel)

    def __post_init__(self) -> None:
        if self.n_wavelengths <= 0:
            raise ValueError("a cable carries at least one wavelength")
        if self.ripple_db and len(self.ripple_db) != self.n_wavelengths:
            raise ValueError("ripple must have one entry per wavelength")

    def line_system(self) -> LineSystem:
        cable = FiberCable(self.name, self.span_length_km, self.n_spans)
        return LineSystem(cable, launch_power_dbm=self.launch_power_dbm)

    def baselines_db(self) -> np.ndarray:
        """Per-wavelength baseline SNR in dB."""
        base = self.line_system().snr_db() - self.quality_penalty_db
        ripple = np.asarray(self.ripple_db or [0.0] * self.n_wavelengths)
        return base + ripple


@dataclass(frozen=True)
class BackboneConfig:
    """Knobs of the synthetic backbone.

    Defaults are calibrated so the summary statistics match the paper's
    (see EXPERIMENTS.md); tests use smaller horizons via ``years``.
    """

    n_cables: int = 55
    wavelengths_low: int = 24
    wavelengths_high: int = 56
    spans_low: int = 6
    spans_high: int = 45
    span_length_km: float = 80.0
    launch_power_dbm: float = 0.0
    #: scale of the exponential cable-quality penalty (dB)
    quality_penalty_scale_db: float = 1.8
    quality_penalty_cap_db: float = 8.0
    #: per-wavelength ripple standard deviation (dB), clipped at +-2
    ripple_sigma_db: float = 0.7
    #: lognormal parameters of the per-cable AR(1) noise sigma
    noise_sigma_median_db: float = 0.28
    noise_sigma_spread: float = 0.55
    noise_sigma_cap_db: float = 0.65
    #: operators provision margin: the cable-centre baseline never drops
    #: below this, so healthy links do not chatter across the 100 Gbps
    #: threshold on noise alone (Section 2.1: "operators ... provision
    #: large margins")
    min_centre_baseline_db: float = 12.0
    noise_rho: float = 0.9
    wander_low_db: float = 0.05
    wander_high_db: float = 0.55
    years: float = 2.5
    interval_s: float = 900.0
    configured_capacity_gbps: float = 100.0
    event_rates: EventRates = field(default_factory=lambda: PAPER_EVENT_RATES)
    seed: int = 2017

    def timebase(self) -> Timebase:
        return Timebase.from_duration(years=self.years, interval_s=self.interval_s)

    @classmethod
    def small(cls, *, years: float = 0.25, n_cables: int = 6, seed: int = 7) -> "BackboneConfig":
        """A test-sized backbone (a few hundred links, a season of data)."""
        return cls(n_cables=n_cables, years=years, seed=seed)


def _synthesize_cable(
    config: BackboneConfig, spec: CableSpec, seed_offset: int = 0
) -> list[SnrTrace]:
    """Synthesize one cable's traces (module-level so workers can pickle it).

    The rng is keyed on ``(config.seed, crc32(name), seed_offset)`` —
    stable across processes (str ``hash()`` is salted, ``zlib.crc32`` is
    not), so a pool worker produces exactly the bytes the serial path
    would.
    """
    timebase = config.timebase()
    rng = component_rng(config.seed, spec.name, seed_offset)
    synth = EventSynthesizer(config.event_rates)
    cable_events = synth.cable_events(timebase.duration_s, rng)
    wavelength_events = {
        idx: events
        for idx in range(spec.n_wavelengths)
        if (events := synth.wavelength_events(timebase.duration_s, rng))
    }
    return synthesize_cable_traces(
        spec.name,
        spec.baselines_db(),
        timebase,
        cable_events,
        wavelength_events,
        spec.noise,
        rng,
    )


def _summarize_cable(
    config: BackboneConfig, spec: CableSpec, table: ModulationTable
) -> list[LinkSummary]:
    """Synthesize + reduce one cable inside a worker.

    Reducing in the worker keeps the parallel path's inter-process
    traffic small: summaries are a few KB per cable, raw traces tens of
    MB.
    """
    return [
        summarize_trace(
            trace,
            table=table,
            configured_capacity_gbps=config.configured_capacity_gbps,
        )
        for trace in _synthesize_cable(config, spec)
    ]


class BackboneDataset:
    """Deterministic synthetic backbone: cable specs, traces, summaries."""

    def __init__(self, config: BackboneConfig | None = None):
        self.config = config if config is not None else BackboneConfig()
        self._specs: list[CableSpec] | None = None

    def cable_specs(self) -> list[CableSpec]:
        """The backbone's cables (memoised; deterministic from the seed)."""
        if self._specs is None:
            self._specs = self._draw_specs()
        return self._specs

    def _draw_specs(self) -> list[CableSpec]:
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        specs = []
        for i in range(cfg.n_cables):
            n_wave = int(rng.integers(cfg.wavelengths_low, cfg.wavelengths_high + 1))
            n_spans = int(rng.integers(cfg.spans_low, cfg.spans_high + 1))
            line_snr = LineSystem(
                FiberCable(f"cable{i:03d}", cfg.span_length_km, n_spans),
                launch_power_dbm=cfg.launch_power_dbm,
            ).snr_db()
            penalty = min(
                float(rng.exponential(cfg.quality_penalty_scale_db)),
                cfg.quality_penalty_cap_db,
                max(line_snr - cfg.min_centre_baseline_db, 0.0),
            )
            ripple = np.clip(
                rng.normal(0.0, cfg.ripple_sigma_db, size=n_wave), -2.0, 2.0
            )
            sigma = min(
                float(
                    rng.lognormal(
                        mean=np.log(cfg.noise_sigma_median_db),
                        sigma=cfg.noise_sigma_spread,
                    )
                ),
                cfg.noise_sigma_cap_db,
            )
            noise = NoiseModel(
                sigma_db=sigma,
                rho=cfg.noise_rho,
                wander_amplitude_db=float(
                    rng.uniform(cfg.wander_low_db, cfg.wander_high_db)
                ),
            )
            specs.append(
                CableSpec(
                    name=f"cable{i:03d}",
                    n_wavelengths=n_wave,
                    n_spans=n_spans,
                    span_length_km=cfg.span_length_km,
                    launch_power_dbm=cfg.launch_power_dbm,
                    quality_penalty_db=penalty,
                    ripple_db=tuple(float(r) for r in ripple),
                    noise=noise,
                )
            )
        return specs

    def n_links(self) -> int:
        return sum(spec.n_wavelengths for spec in self.cable_specs())

    def cable_traces(self, spec: CableSpec, *, seed_offset: int = 0) -> list[SnrTrace]:
        """Synthesize the SNR traces of one cable."""
        return _synthesize_cable(self.config, spec, seed_offset)

    def _map_cables(
        self, fn: Callable[[CableSpec], _T], workers: int
    ) -> Iterator[_T]:
        """The single cable traversal every corpus-level API goes through.

        Serial when ``workers <= 1``; otherwise cable jobs fan out over a
        pool, results arriving in cable order either way.
        """
        specs = self.cable_specs()
        if workers <= 1 or len(specs) <= 1:
            for spec in specs:
                yield fn(spec)
        else:
            yield from pool_map(fn, specs, workers)

    def iter_traces(self, *, workers: int | None = None) -> Iterator[SnrTrace]:
        """All traces, one cable at a time (bounded memory).

        ``workers`` > 1 synthesises cables on a process pool (thread
        fallback); ordering and content are identical to serial.
        """
        fn = functools.partial(_synthesize_cable, self.config)
        for cable in self._map_cables(fn, resolve_workers(workers)):
            yield from cable

    def summaries(
        self,
        *,
        table: ModulationTable = DEFAULT_MODULATIONS,
        workers: int | None = None,
        cache: bool | None = None,
    ) -> list[LinkSummary]:
        """Per-link summary statistics for the whole backbone.

        Args:
            table: modulation ladder for feasibility/failure thresholds.
            workers: cable-level parallelism; ``None`` defers to the
                ``REPRO_WORKERS`` env var (default serial).  Results are
                bit-identical regardless of the worker count.
            cache: force the on-disk summary cache on/off; ``None``
                defers to ``REPRO_NO_CACHE`` (default on).  Keys include
                the config, the table and a synthesis-code fingerprint,
                so stale reads are impossible.
        """
        cfg = self.config
        n_workers = resolve_workers(workers)
        use_cache = summary_cache.cache_enabled(cache)
        key = None
        if use_cache:
            key = summary_cache.dataset_key(cfg, table)
            cached = summary_cache.load(key)
            if cached is not None:
                _metrics.counter("synthesis.cache_hit").inc()
                return cached
            _metrics.counter("synthesis.cache_miss").inc()
        fn = functools.partial(_summarize_cable, cfg, table=table)
        with _metrics.summary("synthesis.summaries").time(
            workers=n_workers, n_cables=cfg.n_cables
        ):
            out = [
                summary
                for cable in self._map_cables(fn, n_workers)
                for summary in cable
            ]
        if use_cache and key is not None:
            summary_cache.store(key, out)
        return out


def high_quality_cable_spec(
    *, n_wavelengths: int = 40, seed: int = 40_2017
) -> CableSpec:
    """The Figure-3a workload: a premium cable where every denomination
    is feasible, but 200 Gbps sits close to some wavelengths' noise floor.

    Baselines spread between roughly 15.2 and 17.5 dB: all wavelengths
    clear the 14.5 dB / 200 Gbps threshold, yet the lowest ones are only
    a few noise standard deviations above it — exactly the regime where
    the paper observes failure counts exploding at 200 Gbps while staying
    flat up to 175 Gbps.
    """
    rng = np.random.default_rng(seed)
    ripple = rng.uniform(15.0, 17.5, size=n_wavelengths)
    # express baselines via ripple around a 12-span line system's budget
    reference = LineSystem(
        FiberCable("hq-cable", 80.0, 12), launch_power_dbm=0.0
    ).snr_db()
    return CableSpec(
        name="hq-cable",
        n_wavelengths=n_wavelengths,
        n_spans=12,
        quality_penalty_db=0.0,
        ripple_db=tuple(float(b - reference) for b in ripple),
        noise=NoiseModel(sigma_db=0.22, rho=0.9, wander_amplitude_db=0.15),
    )
