"""Scheduling capacity changes: never darken a whole shared-risk group.

Translating a TE round can yield many upgrades at once.  Executing
them all simultaneously is tempting (one outage window) but reckless:
if several of them ride the same fiber cable, reconfiguring them
together takes the entire cable's IP capacity away at once — precisely
the correlated failure mode Section 2 documents.

:func:`schedule_reconfigurations` orders changes into batches such that

* no batch touches two links of the same SRLG (the cable always keeps
  its other wavelengths up), and
* batches respect a size cap (operators bound concurrent maintenance).

Greedy graph colouring over the conflict graph keeps it simple and
near-optimal for the sparse conflicts real plants have.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.translation import LinkUpgrade
from repro.net.srlg import SrlgMap


@dataclass(frozen=True)
class ReconfigurationBatch:
    """Changes safe to execute concurrently."""

    upgrades: tuple[LinkUpgrade, ...]

    @property
    def link_ids(self) -> tuple[str, ...]:
        return tuple(u.link_id for u in self.upgrades)

    def __len__(self) -> int:
        return len(self.upgrades)


@dataclass(frozen=True)
class ReconfigurationSchedule:
    """The ordered batches plus summary accounting."""

    batches: tuple[ReconfigurationBatch, ...]

    @property
    def n_batches(self) -> int:
        return len(self.batches)

    @property
    def n_changes(self) -> int:
        return sum(len(b) for b in self.batches)

    def estimated_wallclock_s(self, per_change_downtime_s: float) -> float:
        """Serial-batch wall clock: batches run one after another,
        changes inside a batch in parallel."""
        if per_change_downtime_s < 0:
            raise ValueError("downtime must be non-negative")
        return self.n_batches * per_change_downtime_s


def schedule_reconfigurations(
    upgrades: Sequence[LinkUpgrade],
    srlgs: SrlgMap,
    *,
    max_batch_size: int = 8,
) -> ReconfigurationSchedule:
    """Batch ``upgrades`` so no SRLG loses two wavelengths at once.

    Args:
        upgrades: the capacity changes of one TE round.
        srlgs: cable membership of each link; links absent from the map
            conflict with nothing.
        max_batch_size: upper bound on concurrent changes.

    Changes are considered in descending disrupted-traffic order, so
    the heaviest reconfigurations land in the earliest batches (they
    are the ones operators most want finished first).
    """
    if max_batch_size <= 0:
        raise ValueError("max_batch_size must be positive")
    ordered = sorted(
        upgrades, key=lambda u: u.disrupted_traffic_gbps, reverse=True
    )
    batches: list[list[LinkUpgrade]] = []
    batch_groups: list[set[str]] = []

    for upgrade in ordered:
        groups = set(srlgs.cables_of(upgrade.link_id))
        placed = False
        for batch, used_groups in zip(batches, batch_groups):
            if len(batch) >= max_batch_size:
                continue
            if groups & used_groups:
                continue
            batch.append(upgrade)
            used_groups |= groups
            placed = True
            break
        if not placed:
            batches.append([upgrade])
            batch_groups.append(set(groups))

    return ReconfigurationSchedule(
        batches=tuple(ReconfigurationBatch(tuple(b)) for b in batches)
    )
