"""The simulated wall clock every timed simulation shares.

Born as the transceiver simulator's time source.  The transceiver model
never sleeps; every hardware step *advances* this clock by the step's
drawn duration, and the engine advances it to each event's timestamp.
A 200-trial experiment that would take hours of real hardware time runs
in milliseconds.  The controller runs own one too, advanced to each
telemetry sample's time, so their trace spans carry sim times.
"""

from __future__ import annotations


class SimClock:
    """Monotonic simulated time in seconds."""

    def __init__(self, start_s: float = 0.0):
        self._now = float(start_s)

    @property
    def now_s(self) -> float:
        return self._now

    def advance(self, dt_s: float) -> float:
        """Move time forward by ``dt_s`` (never backward); returns now."""
        if dt_s < 0:
            raise ValueError(f"cannot advance by negative time {dt_s}")
        self._now += dt_s
        return self._now

    def advance_to(self, t_s: float) -> float:
        """Move time forward to ``t_s`` if it lies ahead; returns now.

        A timestamp at or before the current time is a no-op rather than
        an error: event handlers may advance the clock past later queued
        events (a BVT reconfiguration "takes" simulated time), and the
        engine must still be able to drain those events monotonically.
        """
        if t_s > self._now:
            self._now = float(t_s)
        return self._now

    def __repr__(self) -> str:
        return f"SimClock(t={self._now:.3f}s)"
