"""Parametric impairment events that move a wavelength's SNR.

Section 2.2 of the paper categorises the things that dent an optical
signal: unplanned events during scheduled maintenance, fiber cuts,
hardware (amplifier/transponder/OXC) failures, and undocumented causes.
Each impairment here knows two things:

* its *scope* — whether it hits one wavelength (a transceiver fault) or a
  whole fiber cable (a cut, an amplifier, maintenance on the line system),
* its *SNR effect* — a dB penalty (possibly total loss of light) applied
  for the event's duration.

The telemetry generator draws these from event processes and superimposes
them on the baseline SNR traces; the ticket generator reuses the same
taxonomy so Figures 4a-4c come from one consistent model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class ImpairmentScope(enum.Enum):
    """Which signals an impairment touches."""

    WAVELENGTH = "wavelength"  # a single IP link
    CABLE = "cable"  # every wavelength on the fiber


class RootCause(enum.Enum):
    """The paper's failure-ticket taxonomy (Section 2.2 / Figure 4)."""

    MAINTENANCE = "maintenance"  # unplanned event during planned work
    FIBER_CUT = "fiber_cut"
    HARDWARE = "hardware"  # amplifier / transponder / OXC failure
    UNDOCUMENTED = "undocumented"

    @property
    def label(self) -> str:
        return {
            RootCause.MAINTENANCE: "Human/maintenance",
            RootCause.FIBER_CUT: "Fiber cut",
            RootCause.HARDWARE: "Hardware failure",
            RootCause.UNDOCUMENTED: "Undocumented",
        }[self]


@dataclass(frozen=True)
class Impairment:
    """Base event: an SNR penalty over a time interval.

    Attributes:
        start_s: event start, seconds from trace origin.
        duration_s: how long the penalty applies.
        snr_penalty_db: dB subtracted from the affected signals' SNR.
            ``float('inf')`` means loss of light.
        scope: wavelength-level or cable-level.
        root_cause: ticket category the event would be filed under.
    """

    start_s: float
    duration_s: float
    snr_penalty_db: float
    scope: ImpairmentScope
    root_cause: RootCause

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("impairment duration must be positive")
        if self.snr_penalty_db < 0:
            raise ValueError("snr penalty must be non-negative dB")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    @property
    def is_loss_of_light(self) -> bool:
        return not np.isfinite(self.snr_penalty_db)

    def overlaps(self, t0_s: float, t1_s: float) -> bool:
        """True if the event intersects the half-open interval [t0, t1)."""
        return self.start_s < t1_s and self.end_s > t0_s


def AmplifierDegradation(
    start_s: float, duration_s: float, penalty_db: float
) -> Impairment:
    """A failing EDFA: cable-wide partial SNR loss (hardware category)."""
    return Impairment(
        start_s,
        duration_s,
        penalty_db,
        ImpairmentScope.CABLE,
        RootCause.HARDWARE,
    )
