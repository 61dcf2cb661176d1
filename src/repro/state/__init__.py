"""``repro.state`` — the versioned network state every layer shares.

One authoritative, immutable picture of the network (topology +
per-link capacity / modulation / health / dark flags + BVT status)
with copy-on-write transitions and monotonic versions:

* :class:`NetworkState` / :class:`LinkState` — the snapshot model
  (:mod:`repro.state.model`);
* :class:`StateStore` — a lineage's committed head: one commit takes
  ``{link_id: {field: new value}}`` updates, drops the no-ops, and
  journals and traces what is left (:mod:`repro.state.store`);
* :func:`structure_digest` / :func:`capacity_digest` /
  :func:`demand_digest` — the cache-key tuples
  (:mod:`repro.state.digest`);
* :func:`state_to_payload` / :func:`state_from_payload` and the
  topology payload pair — the bit-exact JSON snapshots the durable
  journal checkpoints (:mod:`repro.state.serialize`).

Layering: this package sits *below* the controller and the simulators
and imports neither (CI enforces the boundary).
"""
