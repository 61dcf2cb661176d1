"""``repro.state`` — the versioned network state every layer shares.

One authoritative, immutable picture of the network (topology +
per-link capacity / modulation / health / dark flags + BVT status)
with copy-on-write transitions, monotonic versions, typed deltas and a
ring buffer of recent snapshots:

* :class:`NetworkState` / :class:`LinkState` — the snapshot model
  (:mod:`repro.state.model`);
* :func:`diff` / :func:`apply_deltas` and the typed ``*Delta`` records
  (:mod:`repro.state.delta`);
* :class:`StateStore` — recent history, what-if forks, transition
  trace points (:mod:`repro.state.store`);
* :func:`structure_digest` / :func:`capacity_digest` /
  :func:`demand_digest` — the cache-key tuples
  (:mod:`repro.state.digest`);
* :func:`state_to_payload` / :func:`state_from_payload` and the
  topology payload pair — the bit-exact JSON snapshots the durable
  journal checkpoints (:mod:`repro.state.serialize`).

Layering: this package sits *below* the controller and the simulators
and imports neither (CI enforces the boundary).
"""
