"""Typed deltas between two :class:`~repro.state.model.NetworkState`s.

:func:`diff` decomposes a transition into the smallest vocabulary the
control loop actually speaks:

* :class:`DarkDelta` — a link crossed the dark boundary (withdrawn
  from, or restored to, the routable topology);
* :class:`CapacityDelta` — a live link's usable rate changed (a flap,
  a downgrade, an upgrade);
* :class:`ModulationDelta` — the modulation format changed;
* :class:`BvtDelta` — the BVT hardware's reported line rate changed;
* :class:`HealthDelta` — anything else the controller tracks per link
  (SNR readings, staleness counters, configured rate, headroom,
  penalty), carried as an explicit field name.

:func:`apply_deltas` replays a delta list onto the old state and
reproduces the new one bit-for-bit (the round-trip the test suite
pins), which is what makes deltas safe to ship across a process
boundary or into ``state_timeline.jsonl`` instead of whole snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import copysign
from typing import Any, Union

from repro.state.model import MUTABLE_LINK_FIELDS, NetworkState

#: LinkState fields that get their own delta type (the rest ride
#: :class:`HealthDelta`)
_CAPACITY_FIELD = "capacity_gbps"
_MODULATION_FIELD = "modulation"
_BVT_FIELD = "bvt_gbps"
_HEALTH_FIELDS = tuple(
    sorted(
        MUTABLE_LINK_FIELDS
        - {_CAPACITY_FIELD, _MODULATION_FIELD, _BVT_FIELD}
    )
)


@dataclass(frozen=True)
class CapacityDelta:
    """A live link's usable capacity changed."""

    link_id: str
    old_gbps: float
    new_gbps: float


@dataclass(frozen=True)
class DarkDelta:
    """A link crossed the dark boundary.

    ``dark=True`` withdraws the link (new capacity 0); ``dark=False``
    relights it at ``relit_gbps``.
    """

    link_id: str
    dark: bool
    relit_gbps: float = 0.0


@dataclass(frozen=True)
class ModulationDelta:
    """The link's modulation format changed."""

    link_id: str
    old: str | None
    new: str | None


@dataclass(frozen=True)
class BvtDelta:
    """The BVT hardware's reported line rate changed."""

    link_id: str
    old_gbps: float | None
    new_gbps: float | None


@dataclass(frozen=True)
class HealthDelta:
    """Any other tracked per-link field changed (named explicitly)."""

    link_id: str
    field: str
    old: Any
    new: Any


StateDelta = Union[
    CapacityDelta, DarkDelta, ModulationDelta, BvtDelta, HealthDelta
]


def _same(a: Any, b: Any) -> bool:
    """Value equality that treats two NaNs as equal and ±0.0 as different.

    Telemetry fields (``snr_db``) legitimately hold NaN mid-fault;
    without this a NaN -> NaN "transition" would emit a delta on every
    diff forever.  ``0.0 == -0.0`` in IEEE terms, but the two print
    differently, so a sign-of-zero change is a change: without a delta
    the journal would lose it.
    """
    if a is b:
        return True
    if isinstance(a, float) and isinstance(b, float):
        if a != a:
            return b != b
        return a == b and (a != 0.0 or copysign(1.0, a) == copysign(1.0, b))
    return a == b


def diff(old: NetworkState, new: NetworkState) -> list[StateDelta]:
    """The typed deltas that turn ``old`` into ``new``.

    Both states must track the same link set (one lineage: links never
    appear or vanish, they go dark).  Deltas come out in the states'
    link order, fields within a link in a fixed order (dark/capacity,
    then modulation, then BVT, then health fields alphabetically).  A
    link that goes dark at any capacity other than ``0.0`` (``-0.0``,
    a negative rate) also gets a :class:`CapacityDelta` from ``0.0``,
    so replaying the deltas restores the exact value.
    """
    old_links, new_links = old.links, new.links
    if old_links.keys() != new_links.keys():
        missing = old_links.keys() ^ new_links.keys()
        raise ValueError(
            f"states track different links (symmetric diff {sorted(missing)}); "
            "diff only spans one lineage"
        )
    deltas: list[StateDelta] = []
    append = deltas.append
    for link_id, before in old_links.items():
        after = new_links[link_id]
        if after is before:
            continue  # structurally shared: untouched by every transition
        b, a = before.__dict__, after.__dict__
        b_cap, a_cap = b[_CAPACITY_FIELD], a[_CAPACITY_FIELD]
        if (b_cap <= 0) != (a_cap <= 0):
            if a_cap <= 0:
                append(DarkDelta(link_id, dark=True, relit_gbps=0.0))
                if not _same(a_cap, 0.0):
                    append(CapacityDelta(link_id, 0.0, a_cap))
            else:
                append(DarkDelta(link_id, dark=False, relit_gbps=a_cap))
        elif b_cap is not a_cap and not _same(b_cap, a_cap):
            append(CapacityDelta(link_id, b_cap, a_cap))
        bv, av = b[_MODULATION_FIELD], a[_MODULATION_FIELD]
        if bv is not av and not _same(bv, av):
            append(ModulationDelta(link_id, bv, av))
        bv, av = b[_BVT_FIELD], a[_BVT_FIELD]
        if bv is not av and not _same(bv, av):
            append(BvtDelta(link_id, bv, av))
        for name in _HEALTH_FIELDS:
            bv, av = b[name], a[name]
            if bv is not av and not _same(bv, av):
                append(HealthDelta(link_id, name, bv, av))
    return deltas


def delta_updates(deltas: list[StateDelta]) -> dict[str, dict[str, Any]]:
    """The ``{link_id: {field: new}}`` updates a delta list stands for.

    What :meth:`NetworkState.evolve` takes: later deltas on the same
    field win, so a dark crossing followed by its capacity rider lands
    on the rider's value.  The journal's transition frames hold exactly
    this mapping.
    """
    updates: dict[str, dict[str, Any]] = {}
    for delta in deltas:
        changes = updates.setdefault(delta.link_id, {})
        if isinstance(delta, DarkDelta):
            changes[_CAPACITY_FIELD] = 0.0 if delta.dark else delta.relit_gbps
        elif isinstance(delta, CapacityDelta):
            changes[_CAPACITY_FIELD] = delta.new_gbps
        elif isinstance(delta, ModulationDelta):
            changes[_MODULATION_FIELD] = delta.new
        elif isinstance(delta, BvtDelta):
            changes[_BVT_FIELD] = delta.new_gbps
        elif isinstance(delta, HealthDelta):
            changes[delta.field] = delta.new
        else:  # pragma: no cover - exhaustive over StateDelta
            raise TypeError(f"unknown delta {delta!r}")
    return updates


def apply_deltas(
    base: NetworkState,
    deltas: list[StateDelta],
    *,
    label: str,
    version: int | None = None,
) -> NetworkState:
    """Replay ``deltas`` onto ``base`` as one transition.

    With ``version`` left at its default the result is a normal child
    (``base.version + 1``); pass the target's version to reproduce a
    diffed state bit-for-bit.
    """
    out = base.evolve(delta_updates(deltas), label=label)
    if version is not None:
        out.version = version
        out.parent_version = base.version
    return out


def delta_counts(deltas: list[StateDelta]) -> dict[str, int]:
    """How many deltas of each kind — the timeline's compact summary."""
    counts: dict[str, int] = {}
    for delta in deltas:
        kind = type(delta).__name__.removesuffix("Delta").lower()
        counts[kind] = counts.get(kind, 0) + 1
    return counts


def delta_payload(delta: StateDelta) -> dict[str, Any]:
    """One delta as a plain-JSON dict (for ``state_timeline.jsonl``)."""
    kind = type(delta).__name__.removesuffix("Delta").lower()
    payload: dict[str, Any] = {"kind": kind, "link_id": delta.link_id}
    for name, value in vars(delta).items():
        if name != "link_id":
            payload[name] = value
    return payload
