"""The versioned, immutable network state every layer shares.

The paper's control loop — SNR telemetry drives capacity
reconfiguration drives TE on the augmented graph (§2–§4) — used to be
spread over five layers that each kept a private copy of "what the
network looks like right now".  :class:`NetworkState` is the one
authoritative picture:

* **immutable + structurally shared.**  A state never changes; a
  transition builds a new state via :meth:`NetworkState.evolve`, which
  shallow-copies the link table and shares every untouched
  :class:`LinkState` object with its parent.  Holding a state is
  therefore always safe (what-if forks, post-mortems) and a transition
  is O(links changed), not O(network).
* **versioned.**  Every transition increments a monotonic ``version``
  and records the parent, so a lineage is an auditable chain.
* **digest-keyed.**  :attr:`NetworkState.structure_id` and
  :attr:`NetworkState.capacity_digest` are the exact tuples the
  incremental-TE cache keys on (:mod:`repro.state.digest`), so cache
  invalidation is a by-product of state identity instead of
  hand-assembled per call site.

Dark links stay *in* the state with ``capacity_gbps == 0`` (a
:class:`~repro.net.topology.Link` must have positive capacity, so a
dark link has no Link — but the controller still needs its configured
rate, last-good SNR and staleness).  :meth:`NetworkState.to_topology`
materializes the live subgraph through ``Topology.copy`` +
``remove_link``/``replace_link`` — the same primitives
:func:`repro.net.srlg.fail_cable` and ``degrade_cable`` use — so link
iteration order, and hence LP variable layout, is preserved exactly.

Layering contract: this package sits below the controller and the
simulators and must import neither (CI enforces it).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Any, Iterator, Mapping, Sequence

from repro.net.topology import Link, Topology
from repro.state.digest import CapacityDigest, StructureDigest

#: LinkState fields :meth:`NetworkState.evolve` accepts in an update
MUTABLE_LINK_FIELDS = frozenset(
    {
        "capacity_gbps",
        "configured_gbps",
        "headroom_gbps",
        "penalty",
        "modulation",
        "snr_db",
        "last_good_snr_db",
        "stale_rounds",
        "bvt_gbps",
    }
)


@dataclass(frozen=True)
class LinkState:
    """Everything the control loop knows about one directed link.

    Attributes:
        link_id / src / dst: identity (immutable across transitions).
        capacity_gbps: usable capacity right now; ``0`` means the link
            is dark (withdrawn from TE but still tracked).
        configured_gbps: the rate the BVT is configured for — what the
            link comes back at when it relights.
        headroom_gbps / penalty / weight: the TE-facing ``U`` and ``P``
            knobs plus the routing weight, mirroring
            :class:`~repro.net.topology.Link`.
        is_fake / shadow_of: augmentation bookkeeping for states
            snapshotted from solve topologies.
        modulation: name of the current modulation format, if known.
        snr_db: most recent telemetry reading (may be NaN mid-fault).
        last_good_snr_db: last finite reading, for stale-hold screening.
        stale_rounds: consecutive rounds of unusable telemetry.
        bvt_gbps: the BVT hardware's reported line rate, if attached.
    """

    link_id: str
    src: str
    dst: str
    capacity_gbps: float
    configured_gbps: float
    headroom_gbps: float = 0.0
    penalty: float = 0.0
    weight: float = 1.0
    is_fake: bool = False
    shadow_of: str | None = None
    modulation: str | None = None
    snr_db: float | None = None
    last_good_snr_db: float | None = None
    stale_rounds: int = 0
    bvt_gbps: float | None = None

    @property
    def dark(self) -> bool:
        """True when the link is withdrawn from the routable topology."""
        return self.capacity_gbps <= 0

    @classmethod
    def from_link(cls, link: Link) -> "LinkState":
        """Seed a link's state from its topology record."""
        return cls(
            link_id=link.link_id,
            src=link.src,
            dst=link.dst,
            capacity_gbps=link.capacity_gbps,
            configured_gbps=link.capacity_gbps,
            headroom_gbps=link.headroom_gbps,
            penalty=link.penalty,
            weight=link.weight,
            is_fake=link.is_fake,
            shadow_of=link.shadow_of,
        )


_LINK_STATE_FIELDS = tuple(f.name for f in fields(LinkState))


class NetworkState:
    """One immutable snapshot of the network, with copy-on-write evolution.

    Build the initial state with :meth:`from_topology` (physical view:
    real links only) or :meth:`snapshot` (verbatim view of any
    topology, fake links included — what the TE cache keys on).  Every
    subsequent state comes from :meth:`evolve` / :meth:`darken` /
    :meth:`flap` / :meth:`fork` on an existing one.
    """

    __slots__ = (
        "base",
        "links",
        "version",
        "parent_version",
        "label",
        "__dict__",
    )

    def __init__(
        self,
        base: Topology,
        links: Mapping[str, LinkState],
        *,
        version: int = 0,
        parent_version: int | None = None,
        label: str = "init",
    ):
        #: the reference topology transitions are materialized against
        self.base = base
        #: link id -> LinkState, in the base topology's link order
        self.links = dict(links)
        self.version = version
        self.parent_version = parent_version
        self.label = label

    # -- construction --------------------------------------------------

    @classmethod
    def from_topology(
        cls, topology: Topology, *, label: str = "init"
    ) -> "NetworkState":
        """The physical view: every real link, seeded from the topology."""
        return cls(
            topology,
            {l.link_id: LinkState.from_link(l) for l in topology.real_links()},
            label=label,
        )

    @classmethod
    def snapshot(
        cls, topology: Topology, *, label: str = "snapshot"
    ) -> "NetworkState":
        """A verbatim view of ``topology``, fake links included.

        Used to key TE solves: the augmented solve graph's structure
        and numbers become this state's digests.
        """
        return cls(
            topology,
            {l.link_id: LinkState.from_link(l) for l in topology.links},
            label=label,
        )

    # -- transitions ---------------------------------------------------

    def evolve(
        self,
        updates: Mapping[str, Mapping[str, Any]],
        *,
        label: str,
    ) -> "NetworkState":
        """A child state with per-link field updates applied.

        ``updates`` maps link ids to ``{field: value}`` dicts; only
        :data:`MUTABLE_LINK_FIELDS` may appear (identity and wiring
        are fixed for a lineage).  Untouched links are shared with the
        parent; an unknown link id is an error.
        """
        links = dict(self.links)
        for link_id, changes in updates.items():
            try:
                current = links[link_id]
            except KeyError:
                raise KeyError(
                    f"state v{self.version} has no link {link_id!r}"
                ) from None
            if not MUTABLE_LINK_FIELDS.issuperset(changes):
                bad = set(changes) - MUTABLE_LINK_FIELDS
                raise ValueError(
                    f"immutable or unknown LinkState fields {sorted(bad)}"
                )
            # what dataclasses.replace builds, without re-running the
            # frozen __init__: the parent's fields with the changes on top
            child = object.__new__(LinkState)
            child_fields = child.__dict__
            child_fields.update(current.__dict__)
            child_fields.update(changes)
            links[link_id] = child
        return NetworkState(
            self.base,
            links,
            version=self.version + 1,
            parent_version=self.version,
            label=label,
        )

    def darken(
        self, link_ids: Sequence[str], *, label: str
    ) -> "NetworkState":
        """Withdraw links (capacity -> 0); unknown ids skip silently.

        The state-level :func:`~repro.net.srlg.fail_cable`: skipping
        missing links lets cascading scenarios compose.
        """
        updates = {
            link_id: {"capacity_gbps": 0.0}
            for link_id in link_ids
            if link_id in self.links
        }
        return self.evolve(updates, label=label)

    def flap(
        self, link_ids: Sequence[str], floor_gbps: float, *, label: str
    ) -> "NetworkState":
        """Cap links at ``floor_gbps`` with no headroom; unknowns skip.

        The state-level :func:`~repro.net.srlg.degrade_cable`: an SNR
        dip that leaves some rate feasible degrades the group instead
        of killing it.
        """
        if floor_gbps <= 0:
            raise ValueError("use darken for total loss")
        updates = {}
        for link_id in link_ids:
            current = self.links.get(link_id)
            if current is not None:
                updates[link_id] = {
                    "capacity_gbps": min(floor_gbps, current.capacity_gbps),
                    "headroom_gbps": 0.0,
                }
        return self.evolve(updates, label=label)

    def fork(self, *, label: str) -> "NetworkState":
        """A zero-change child: the root of a what-if lineage."""
        return self.evolve({}, label=label)

    # -- queries -------------------------------------------------------

    def __iter__(self) -> Iterator[LinkState]:
        return iter(self.links.values())

    def __contains__(self, link_id: str) -> bool:
        return link_id in self.links

    def __len__(self) -> int:
        return len(self.links)

    def link(self, link_id: str) -> LinkState:
        try:
            return self.links[link_id]
        except KeyError:
            raise KeyError(
                f"state v{self.version} has no link {link_id!r}"
            ) from None

    def capacity_of(self, link_id: str, default: float = 0.0) -> float:
        """Current capacity of a link, ``default`` when untracked."""
        state = self.links.get(link_id)
        return state.capacity_gbps if state is not None else default

    def live_links(self) -> list[LinkState]:
        return [s for s in self.links.values() if not s.dark]

    def dark_links(self) -> list[LinkState]:
        return [s for s in self.links.values() if s.dark]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NetworkState):
            return NotImplemented
        return (
            self.version == other.version
            and self.parent_version == other.parent_version
            and self.label == other.label
            and self.links == other.links
        )

    def __repr__(self) -> str:
        dark = sum(1 for s in self.links.values() if s.dark)
        return (
            f"NetworkState(v{self.version}, {self.label!r}, "
            f"links={len(self.links)}, dark={dark})"
        )

    # -- digests -------------------------------------------------------

    @cached_property
    def structure_id(self) -> StructureDigest:
        """The live subgraph's wiring — identical to
        :func:`repro.state.digest.structure_digest` of
        :meth:`to_topology`'s result (node set included: removing a
        link never removes its nodes)."""
        return (
            self.base.nodes,
            tuple(
                (s.link_id, s.src, s.dst)
                for s in self.links.values()
                if not s.dark
            ),
        )

    @cached_property
    def capacity_digest(self) -> CapacityDigest:
        """The live subgraph's numbers — identical to
        :func:`repro.state.digest.capacity_digest` of
        :meth:`to_topology`'s result."""
        live = [s for s in self.links.values() if not s.dark]
        return (
            tuple(s.capacity_gbps for s in live),
            tuple(s.penalty for s in live),
        )

    # -- materialization -----------------------------------------------

    def to_topology(self, name: str | None = None) -> Topology:
        """The live subgraph as a :class:`Topology`.

        Implemented with ``Topology.copy`` + ``remove_link`` +
        ``replace_link`` — the exact primitives the SRLG helpers use —
        so ``_links`` / ``_out`` / ``_in`` ordering matches a topology
        built by incremental edits, keeping LP assembly order (and
        therefore degenerate-optimum tie-breaks) byte-stable.
        """
        out = self.base.copy(name)
        for link_id in list(out._links):
            state = self.links.get(link_id)
            if state is None or state.dark:
                out.remove_link(link_id)
                continue
            link = out.link(link_id)
            changes: dict[str, Any] = {}
            if state.capacity_gbps != link.capacity_gbps:
                changes["capacity_gbps"] = state.capacity_gbps
            if state.headroom_gbps != link.headroom_gbps:
                changes["headroom_gbps"] = state.headroom_gbps
            if state.penalty != link.penalty:
                changes["penalty"] = state.penalty
            if state.weight != link.weight:
                changes["weight"] = state.weight
            if changes:
                out.replace_link(link_id, **changes)
        return out
