"""Plain-JSON snapshots of topologies and :class:`NetworkState`s.

The durable journal (:mod:`repro.recovery`) checkpoints a full
``NetworkState`` every K commits and replays updates on top of it.  For
that to reproduce the in-memory state *bit for bit*, serialization must
preserve two things the obvious ``dict``-dump would lose:

* **order.**  Link iteration order determines LP variable layout and
  therefore degenerate-optimum tie-breaks; nodes and links are written
  in their topology insertion order and read back with ``add_node`` /
  ``add_link`` in the same order, so ``_links`` / ``_out`` / ``_in``
  come back identical.
* **floats.**  Values go through :mod:`json`'s shortest-repr float
  encoding, which round-trips every finite double exactly; NaN (a
  legitimate mid-fault ``snr_db``) survives as the ``NaN`` literal.

Nothing here timestamps anything: payloads are pure functions of the
state, so two identical runs journal byte-identical checkpoints.
"""

from __future__ import annotations

import itertools
from dataclasses import fields
from typing import Any, Mapping

from repro.net.topology import Link, Topology
from repro.state.model import LinkState, NetworkState

_LINK_FIELDS = tuple(f.name for f in fields(Link))
_LINK_STATE_FIELDS = tuple(f.name for f in fields(LinkState))


def topology_to_payload(topology: Topology) -> dict[str, Any]:
    """One topology as a plain-JSON dict, insertion order preserved."""
    return {
        "name": topology.name,
        # _out is keyed by node in insertion order (a dict, not the
        # sorted `nodes` property) — re-adding in this order rebuilds
        # the adjacency structures identically
        "nodes": list(topology._out),
        "links": [
            {name: getattr(link, name) for name in _LINK_FIELDS}
            for link in topology.links
        ],
    }


def topology_from_payload(payload: Mapping[str, Any]) -> Topology:
    """The inverse of :func:`topology_to_payload`."""
    out = Topology(payload["name"])
    for node in payload["nodes"]:
        out.add_node(node)
    for link in payload["links"]:
        fields_ = dict(link)
        link_id = fields_.pop("link_id")
        src = fields_.pop("src")
        dst = fields_.pop("dst")
        capacity = fields_.pop("capacity_gbps")
        out.add_link(src, dst, capacity, link_id=link_id, **fields_)
    # future auto-generated ids must not collide with loaded ones
    out._id_counter = itertools.count(len(payload["links"]))
    return out


def state_to_payload(state: NetworkState) -> dict[str, Any]:
    """One :class:`NetworkState` as a plain-JSON dict."""
    return {
        "topology": topology_to_payload(state.base),
        "version": state.version,
        "parent_version": state.parent_version,
        "label": state.label,
        "links": [
            {name: getattr(link, name) for name in _LINK_STATE_FIELDS}
            for link in state.links.values()
        ],
    }


def state_from_payload(
    payload: Mapping[str, Any], *, base: Topology | None = None
) -> NetworkState:
    """The inverse of :func:`state_to_payload`.

    Pass ``base`` to re-root the state on an existing topology object
    (the controller resumes against the physical topology it was
    constructed with); ``None`` rebuilds the topology from the payload.
    """
    topology = (
        base if base is not None else topology_from_payload(payload["topology"])
    )
    links = {
        link["link_id"]: LinkState(**link) for link in payload["links"]
    }
    return NetworkState(
        topology,
        links,
        version=payload["version"],
        parent_version=payload["parent_version"],
        label=payload["label"],
    )
