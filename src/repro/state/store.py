"""The committed head of one :class:`~repro.state.model.NetworkState` lineage.

A transition is the per-link updates it applied: :meth:`StateStore.commit`
takes a ``{link_id: {field: new value}}`` mapping, drops every field
whose new value is the same as the parent's (:func:`_same`), evolves
:attr:`StateStore.latest` with what is left, hands that same mapping to
the attached journal, and publishes the transition as a
``state.transition`` point event on the ambient tracer
(:mod:`repro.obs` renders those into ``state_timeline.jsonl``).

Durability is delegated: :meth:`StateStore.attach_journal` hooks a
:class:`~repro.recovery.journal.StateJournal` (or anything with
``append_transition``) so every commit's updates land in the
write-ahead log.
"""

from __future__ import annotations

from math import copysign
from typing import Any, Mapping

from repro.obs import trace as _trace
from repro.state.model import MUTABLE_LINK_FIELDS, NetworkState

#: how a changed field counts in a ``state.transition`` point; every
#: field not named here (SNR readings, staleness, configured rate,
#: headroom, penalty) counts as ``health``
_KINDS = {"modulation": "modulation", "bvt_gbps": "bvt"}


def _same(a: Any, b: Any) -> bool:
    """Value equality that treats two NaNs as equal and ±0.0 as different.

    Telemetry fields (``snr_db``) legitimately hold NaN mid-fault;
    without this a NaN -> NaN update would be a change on every commit
    forever.  ``0.0 == -0.0`` in IEEE terms, but the two print
    differently, so a sign-of-zero change is a change: dropping it
    would lose it from the journal.
    """
    if a is b:
        return True
    if isinstance(a, float) and isinstance(b, float):
        if a != a:
            return b != b
        return a == b and (a != 0.0 or copysign(1.0, a) == copysign(1.0, b))
    return a == b


def _kind_counts(
    parent: NetworkState, updates: Mapping[str, Mapping[str, Any]]
) -> dict[str, int]:
    """How many changed fields of each kind ``updates`` holds.

    A capacity that crosses the dark boundary (``<= 0``) counts as
    ``dark``, any other capacity change as ``capacity``.
    """
    counts: dict[str, int] = {}
    for link_id, changes in updates.items():
        for name, value in changes.items():
            if name == "capacity_gbps":
                dark = parent.links[link_id].capacity_gbps <= 0
                kind = "dark" if dark != (value <= 0) else "capacity"
            else:
                kind = _KINDS.get(name, "health")
            counts[kind] = counts.get(kind, 0) + 1
    return counts


class StateStore:
    """The latest committed state of one evolving lineage."""

    def __init__(self, base: NetworkState, *, name: str = "state"):
        self.name = name
        self.latest = base
        #: durable write-ahead journal, when bound (see attach_journal)
        self.journal: Any | None = None

    def attach_journal(self, journal: Any) -> None:
        """Mirror every future commit's updates into ``journal``.

        ``journal`` needs ``append_transition(version, parent, label,
        updates)``, called synchronously inside :meth:`commit` before
        the trace point (the WAL ordering guarantee).
        """
        self.journal = journal

    def commit(
        self, updates: Mapping[str, Mapping[str, Any]], *, label: str
    ) -> NetworkState:
        """Apply ``updates`` to :attr:`latest` as one transition.

        Fields whose new value is :func:`_same` as the parent's are
        dropped first, so the journal and the trace see only what
        changed; a commit whose updates are all no-ops still makes a
        new version.  An unknown link is a ``KeyError``; a field outside
        :data:`~repro.state.model.MUTABLE_LINK_FIELDS` is kept, so
        :meth:`NetworkState.evolve` rejects it.  Returns the new state.
        """
        parent = self.latest
        changed: dict[str, dict[str, Any]] = {}
        for link_id, fields in updates.items():
            old = parent.link(link_id).__dict__
            kept = {
                name: value
                for name, value in fields.items()
                if name not in MUTABLE_LINK_FIELDS or not _same(old[name], value)
            }
            if kept:
                changed[link_id] = kept
        state = parent.evolve(changed, label=label)
        if self.journal is not None:
            self.journal.append_transition(
                state.version, state.parent_version, label, changed
            )
        self.latest = state
        tracer = _trace.current_tracer()
        if tracer is not None:
            counts = _kind_counts(parent, changed)
            tracer.point(
                "state.transition",
                store=self.name,
                version=state.version,
                parent=state.parent_version,
                label=label,
                n_deltas=sum(counts.values()),
                **{f"n_{kind}": n for kind, n in sorted(counts.items())},
            )
        return state
