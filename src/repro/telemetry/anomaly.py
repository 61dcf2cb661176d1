"""Online SNR anomaly detection.

A dynamic-capacity controller that only reacts *after* SNR crosses a
threshold still takes a hit while the BVT re-modulates.  A monitoring
loop that flags abnormal SNR behaviour early lets the controller walk
the capacity down before the link actually fails — turning even the
detection into a proactive flap.

The detector is a standard EWMA control chart: track an exponentially
weighted mean and variance of the (slowly varying) signal; samples more
than ``k_sigma`` below the band flag a dip, and recovery is declared
once samples return inside it.  Robustness details that matter on real
telemetry are handled: warm-up before alarming, and freezing the
statistics during an alarm so the dip itself does not poison the
baseline.  :class:`EwmaAlarmMonitor` runs one detector per link over a
fleet's telemetry samples (the reaction-lag study's proactive mode).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

from repro.telemetry.traces import TelemetrySample


class SignalState(enum.Enum):
    WARMING_UP = "warming_up"
    NORMAL = "normal"
    DIP = "dip"


@dataclass(frozen=True)
class DipAlert:
    """One detected SNR dip."""

    start_index: int
    end_index: int  # exclusive; == start while the dip is still open
    depth_db: float  # baseline minus the deepest sample seen

    @property
    def n_samples(self) -> int:
        return self.end_index - self.start_index


class EwmaDipDetector:
    """Streaming EWMA control chart over one link's SNR.

    Args:
        alpha: EWMA weight of the newest sample (0 < alpha < 1; small =
            slow baseline).
        k_sigma: alarm threshold in baseline standard deviations.
        warmup: samples consumed before alarms may fire.
        min_sigma_db: variance floor so an ultra-quiet link still needs
            a real dip (not a 0.01 dB wiggle) to alarm.
    """

    def __init__(
        self,
        *,
        alpha: float = 0.05,
        k_sigma: float = 5.0,
        warmup: int = 32,
        min_sigma_db: float = 0.08,
    ):
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if k_sigma <= 0:
            raise ValueError("k_sigma must be positive")
        if warmup < 2:
            raise ValueError("warmup must be at least 2 samples")
        if min_sigma_db <= 0:
            raise ValueError("min_sigma_db must be positive")
        self.alpha = alpha
        self.k_sigma = k_sigma
        self.warmup = warmup
        self.min_sigma_db = min_sigma_db
        self._mean = 0.0
        self._var = 0.0
        self._n = 0
        self._state = SignalState.WARMING_UP
        self._dip_start = 0
        self._dip_min = math.inf
        #: non-finite samples skipped (telemetry dropouts); they never
        #: touch the EWMA statistics or the dip state machine
        self.n_skipped = 0

    @property
    def state(self) -> SignalState:
        return self._state

    @property
    def baseline_db(self) -> float:
        return self._mean

    @property
    def sigma_db(self) -> float:
        return max(math.sqrt(max(self._var, 0.0)), self.min_sigma_db)

    def update(self, snr_db: float, index: int) -> DipAlert | None:
        """Feed one sample; returns a closed :class:`DipAlert` when a
        dip ends, None otherwise.

        A NaN/inf sample (a telemetry dropout) is skipped and counted:
        the statistics, warm-up progress and any open dip are left
        exactly as they were, so a dropout can neither poison the
        baseline nor fake a recovery.
        """
        if not math.isfinite(snr_db):
            self.n_skipped += 1
            return None
        if self._n < self.warmup:
            # classic running mean/variance during warm-up
            self._n += 1
            delta = snr_db - self._mean
            self._mean += delta / self._n
            self._var += (delta * (snr_db - self._mean) - self._var) / self._n
            if self._n >= self.warmup:
                self._state = SignalState.NORMAL
            return None

        threshold = self._mean - self.k_sigma * self.sigma_db
        if self._state is SignalState.NORMAL:
            if snr_db < threshold:
                self._state = SignalState.DIP
                self._dip_start = index
                self._dip_min = snr_db
                return None
            # update statistics only on in-band samples
            delta = snr_db - self._mean
            self._mean += self.alpha * delta
            self._var = (1.0 - self.alpha) * (self._var + self.alpha * delta * delta)
            return None

        # in a dip: statistics frozen, track the depth, wait for recovery
        self._dip_min = min(self._dip_min, snr_db)
        if snr_db >= threshold:
            alert = DipAlert(
                start_index=self._dip_start,
                end_index=index,
                depth_db=self._mean - self._dip_min,
            )
            self._state = SignalState.NORMAL
            return alert
        return None

    def flush(self, end_index: int) -> DipAlert | None:
        """Close an open dip at end-of-stream (for batch analyses)."""
        if self._state is not SignalState.DIP:
            return None
        alert = DipAlert(
            start_index=self._dip_start,
            end_index=end_index,
            depth_db=self._mean - self._dip_min,
        )
        self._state = SignalState.NORMAL
        return alert


class EwmaAlarmMonitor:
    """Per-link EWMA dip detectors over a fleet's telemetry samples.

    Feed it every telemetry sample; it updates one
    :class:`EwmaDipDetector` per link (created in trace order, or
    lazily for a link it has not seen) and returns the set of links
    currently in a dip.
    """

    def __init__(self, link_ids: Sequence[str], *, k_sigma: float = 5.0):
        self._k_sigma = k_sigma
        self._detectors = {
            link_id: EwmaDipDetector(k_sigma=k_sigma) for link_id in link_ids
        }

    @property
    def n_skipped(self) -> int:
        """Non-finite samples skipped across all links (dropouts)."""
        return sum(d.n_skipped for d in self._detectors.values())

    def observe(self, sample: TelemetrySample) -> set[str]:
        """Update every detector; returns links currently in a dip.

        Tolerates degraded telemetry: a link missing from the monitor
        gets a detector on first sight, and NaN readings are skipped
        and counted by the per-link detectors (see
        :meth:`EwmaDipDetector.update`) rather than corrupting their
        EWMA state.
        """
        in_dip: set[str] = set()
        for link_id, snr in sample.snr_db.items():
            detector = self._detectors.get(link_id)
            if detector is None:
                detector = EwmaDipDetector(k_sigma=self._k_sigma)
                self._detectors[link_id] = detector
            detector.update(snr, sample.index)
            if detector.state is SignalState.DIP:
                in_dip.add(link_id)
        return in_dip
