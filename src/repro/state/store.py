"""A ring buffer of recent :class:`~repro.state.model.NetworkState`s.

The :class:`StateStore` is one lineage's recent history: committing a
state keeps the last ``capacity`` snapshots for what-if forks and
post-mortem replay, records the typed deltas of recent transitions, and
publishes each transition as a ``state.transition`` point event on the
ambient tracer (:mod:`repro.obs` renders those into
``state_timeline.jsonl``).

Two stores with a shared ancestor are how fault injection models
observed-vs-truth divergence: the injector commits what the controller
*sees* to one lineage and what the network *is* to another, and the
per-version diff between them is the corruption the faults introduced.

Durability is delegated: :meth:`StateStore.attach_journal` hooks a
:class:`~repro.recovery.journal.StateJournal` (or anything with
``append_transition`` / ``iter_transitions``) so every commit's deltas
land in the write-ahead log, and :meth:`timeline` reads the *complete*
history back through it — which is what lets the in-memory transition
record be a bounded ring instead of growing without limit.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterator

from repro.obs import trace as _trace
from repro.state.delta import StateDelta, delta_counts, delta_payload, diff
from repro.state.model import NetworkState


class StateStore:
    """Recent snapshots of one evolving state lineage.

    ``capacity`` bounds snapshot memory: the buffer keeps the newest
    snapshots and silently forgets the oldest, like the transition
    journal of a production controller.  ``transition_capacity``
    bounds the in-memory transition record the same way (``None`` =
    unbounded, the pre-journal behaviour); with a journal attached the
    evicted transitions remain durably recorded and :meth:`timeline`
    stays complete.
    """

    def __init__(
        self,
        base: NetworkState,
        *,
        capacity: int = 64,
        transition_capacity: int | None = 1024,
        name: str = "state",
    ):
        if capacity < 1:
            raise ValueError("store capacity must be >= 1")
        if transition_capacity is not None and transition_capacity < 1:
            raise ValueError("transition capacity must be >= 1 (or None)")
        self.name = name
        self._snapshots: deque[NetworkState] = deque(maxlen=capacity)
        self._snapshots.append(base)
        #: (version, parent_version, label, deltas) per commit — a ring
        #: of the most recent ``transition_capacity`` transitions
        self.transitions: deque[
            tuple[int, int | None, str, list[StateDelta]]
        ] = deque(maxlen=transition_capacity)
        #: durable write-ahead journal, when bound (see attach_journal)
        self._journal: Any | None = None

    # -- durability ----------------------------------------------------

    def attach_journal(self, journal: Any) -> None:
        """Mirror every future commit's deltas into ``journal``.

        ``journal`` needs ``append_transition(version, parent, label,
        deltas)`` (called synchronously inside :meth:`commit`, before
        the trace point — the WAL ordering guarantee) and
        ``iter_transitions()`` (the complete history for
        :meth:`timeline`).
        """
        self._journal = journal

    @property
    def journal(self) -> Any | None:
        return self._journal

    # -- committing ----------------------------------------------------

    def commit(self, state: NetworkState) -> list[StateDelta]:
        """Append a new state; returns the typed deltas vs the latest.

        Emits a ``state.transition`` point event on the ambient tracer
        carrying the version chain and a per-kind delta count, so a
        traced run gets a complete state timeline for free.
        """
        previous = self.latest
        if state.version <= previous.version:
            raise ValueError(
                f"non-monotonic commit: v{state.version} after "
                f"v{previous.version} in {self.name!r}"
            )
        deltas = diff(previous, state)
        if self._journal is not None:
            self._journal.append_transition(
                state.version, state.parent_version, state.label, deltas
            )
        self._snapshots.append(state)
        self.transitions.append(
            (state.version, state.parent_version, state.label, deltas)
        )
        tracer = _trace.current_tracer()
        if tracer is not None:
            counts = delta_counts(deltas)
            tracer.point(
                "state.transition",
                store=self.name,
                version=state.version,
                parent=state.parent_version,
                label=state.label,
                n_deltas=len(deltas),
                **{f"n_{kind}": n for kind, n in sorted(counts.items())},
            )
        return deltas

    # -- reading -------------------------------------------------------

    @property
    def latest(self) -> NetworkState:
        return self._snapshots[-1]

    @property
    def oldest(self) -> NetworkState:
        return self._snapshots[0]

    def __len__(self) -> int:
        return len(self._snapshots)

    def __iter__(self) -> Iterator[NetworkState]:
        return iter(self._snapshots)

    def get(self, version: int) -> NetworkState:
        """The retained snapshot at ``version`` (KeyError if evicted)."""
        for state in self._snapshots:
            if state.version == version:
                return state
        raise KeyError(
            f"version {version} not retained in {self.name!r} "
            f"(oldest kept: v{self.oldest.version})"
        )

    def fork(self, *, label: str, version: int | None = None) -> NetworkState:
        """A what-if child of a retained snapshot (latest by default)."""
        base = self.latest if version is None else self.get(version)
        return base.fork(label=label)

    # -- timeline ------------------------------------------------------

    def timeline(self) -> list[dict[str, Any]]:
        """Every recorded transition as plain-JSON rows.

        The same schema :func:`repro.obs.export.state_timeline_jsonl`
        writes, for callers that hold the store rather than a tracer.
        With a journal attached the rows come from the durable log —
        the complete lineage, including transitions the in-memory ring
        has evicted; without one, from the ring.
        """
        if self._journal is not None:
            return [
                {
                    "store": self.name,
                    "version": row["version"],
                    "parent": row["parent"],
                    "label": row["label"],
                    "deltas": list(row["deltas"]),
                }
                for row in self._journal.iter_transitions()
            ]
        return [
            {
                "store": self.name,
                "version": version,
                "parent": parent,
                "label": label,
                "deltas": [delta_payload(d) for d in deltas],
            }
            for version, parent, label, deltas in self.transitions
        ]
