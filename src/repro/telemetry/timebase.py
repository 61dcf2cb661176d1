"""The sampling grid for SNR telemetry.

The paper samples every link "every fifteen minutes for a period of 2.5
years".  A :class:`Timebase` pins down that grid once so every module
(trace synthesis, episode extraction, replay) agrees on sample <-> time
conversions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SECONDS_PER_DAY = 86_400.0
DAYS_PER_YEAR = 365.25


@dataclass(frozen=True)
class Timebase:
    """A uniform sampling grid.

    Attributes:
        n_samples: number of samples on the grid.
        interval_s: spacing between samples, seconds (default 15 minutes).
        start_s: absolute time of the first sample, seconds.
    """

    n_samples: int
    interval_s: float = 900.0
    start_s: float = 0.0

    def __post_init__(self) -> None:
        if self.n_samples <= 0:
            raise ValueError("a timebase needs at least one sample")
        if self.interval_s <= 0:
            raise ValueError("sampling interval must be positive")

    @classmethod
    def from_duration(
        cls,
        *,
        years: float | None = None,
        days: float | None = None,
        interval_s: float = 900.0,
        start_s: float = 0.0,
    ) -> "Timebase":
        """Build a grid covering ``years`` or ``days`` (exactly one given).

        >>> Timebase.from_duration(days=1.0).n_samples
        96
        """
        if (years is None) == (days is None):
            raise ValueError("give exactly one of years= or days=")
        total_days = days if days is not None else years * DAYS_PER_YEAR
        duration_s = total_days * SECONDS_PER_DAY
        n = int(round(duration_s / interval_s))
        if n <= 0:
            raise ValueError(f"duration {total_days} days too short for the interval")
        return cls(n_samples=n, interval_s=interval_s, start_s=start_s)

    @property
    def duration_s(self) -> float:
        """Length of the covered interval, seconds."""
        return self.n_samples * self.interval_s

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def times_s(self) -> np.ndarray:
        """Absolute sample times (left edge of each interval)."""
        return self.start_s + self.interval_s * np.arange(self.n_samples)

    def index_at(self, t_s: float) -> int:
        """Index of the sample whose interval contains ``t_s``.

        Clamped to the grid, so callers can pass event times that spill
        slightly past either end of the horizon.
        """
        idx = int((t_s - self.start_s) // self.interval_s)
        return min(max(idx, 0), self.n_samples - 1)

    def slice_between(self, t0_s: float, t1_s: float) -> slice:
        """Samples whose intervals intersect [t0, t1), as a slice.

        Returns an empty slice when the window misses the horizon.
        """
        if t1_s <= self.start_s or t0_s >= self.end_s:
            return slice(0, 0)
        first = self.index_at(max(t0_s, self.start_s))
        # last sample strictly before t1
        last_exclusive = int(
            np.ceil((min(t1_s, self.end_s) - self.start_s) / self.interval_s)
        )
        return slice(first, max(last_exclusive, first))

    def __len__(self) -> int:
        return self.n_samples
