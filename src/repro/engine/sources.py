"""Event sources for the engine timeline.

Each source is a lazy, time-ordered iterator of :class:`Event`s; the
engine merges them with the scheduled queue one pending event at a
time.  The BVT testbed is the one scenario the engine hosts, and
:class:`SequenceSource` is its source: a deterministic fan-out of the
ladder targets at a fixed timestamp.

BVT reconfiguration completions are *published* by the hardware-facing
handlers themselves (see :mod:`repro.bvt.testbed`): their timing is
drawn during execution, so they cannot be pre-scheduled.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.engine.kernel import Event


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
