"""Property: a journaled lineage recovers to the live state, exactly.

Random update sequences on a small topology — NaN telemetry, signed
zeros, dark crossings in both directions and every mutable field — are
committed through a journaled :class:`StateStore` with a round frame
after each round and a checkpoint roll every two rounds.  Then:

* ``recover(dir).state`` equals the live state field by field, by
  ``repr`` (so ``-0.0`` vs ``0.0`` and NaN are told apart exactly);
* the journal's :meth:`StateStore.timeline` rows equal the rows of an
  unjournaled store's in-memory ring;
* :func:`diff` equals a ``getattr``-per-field reference diff.
"""

import json
import tempfile

from hypothesis import given, settings, strategies as st

from repro.net.topologies import line_topology
from repro.recovery.journal import StateJournal, recover
from repro.state.delta import (
    _HEALTH_FIELDS,
    BvtDelta,
    CapacityDelta,
    DarkDelta,
    HealthDelta,
    ModulationDelta,
    _same,
    diff,
)
from repro.state.model import NetworkState
from repro.state.store import StateStore

BASE = NetworkState.from_topology(line_topology(3))
LINKS = list(BASE.links)

NAN = float("nan")
#: values picked to hit the seams: signed zeros, NaN, dark boundaries
SPECIAL = [0.0, -0.0, NAN, -5.0, 1e-300, 100.0, 150.0, 12.5]
floats = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))
optional_floats = st.one_of(st.none(), floats)

FIELD_VALUES = {
    "capacity_gbps": floats,
    "configured_gbps": floats,
    "headroom_gbps": floats,
    "penalty": floats,
    "modulation": st.sampled_from([None, "PM_QPSK", "PM_8QAM", "PM_16QAM"]),
    "snr_db": optional_floats,
    "last_good_snr_db": optional_floats,
    "stale_rounds": st.integers(0, 5),
    "bvt_gbps": optional_floats,
}

link_changes = st.sets(st.sampled_from(sorted(FIELD_VALUES)), max_size=4).flatmap(
    lambda names: st.fixed_dictionaries({name: FIELD_VALUES[name] for name in names})
)
transition = st.one_of(
    st.tuples(
        st.just("evolve"),
        st.dictionaries(st.sampled_from(LINKS), link_changes, max_size=3),
    ),
    st.tuples(st.just("darken"), st.lists(st.sampled_from(LINKS), max_size=2)),
    st.tuples(
        st.just("relight"),
        st.lists(st.sampled_from(LINKS), min_size=1, max_size=2),
    ),
)
rounds = st.lists(st.lists(transition, min_size=1, max_size=3), max_size=6)


def reference_diff(old, new):
    """``diff`` spelled field by field with ``getattr`` — the oracle."""
    deltas = []
    for link_id, before in old.links.items():
        after = new.links[link_id]
        if after is before:
            continue
        if before.dark != after.dark:
            deltas.append(
                DarkDelta(
                    link_id,
                    dark=after.dark,
                    relit_gbps=0.0 if after.dark else after.capacity_gbps,
                )
            )
            if after.dark and not _same(after.capacity_gbps, 0.0):
                deltas.append(CapacityDelta(link_id, 0.0, after.capacity_gbps))
        elif not _same(before.capacity_gbps, after.capacity_gbps):
            deltas.append(
                CapacityDelta(link_id, before.capacity_gbps, after.capacity_gbps)
            )
        if not _same(before.modulation, after.modulation):
            deltas.append(
                ModulationDelta(link_id, before.modulation, after.modulation)
            )
        if not _same(before.bvt_gbps, after.bvt_gbps):
            deltas.append(BvtDelta(link_id, before.bvt_gbps, after.bvt_gbps))
        for name in _HEALTH_FIELDS:
            b, a = getattr(before, name), getattr(after, name)
            if not _same(b, a):
                deltas.append(HealthDelta(link_id, name, b, a))
    return deltas


def step(state, op, i):
    kind, arg = op
    label = f"{kind}-{i}"
    if kind == "evolve":
        return state.evolve(arg, label=label)
    if kind == "darken":
        return state.darken(arg, label=label)
    return state.evolve(
        {link_id: {"capacity_gbps": 100.0} for link_id in arg}, label=label
    )


def link_reprs(state):
    return {
        link_id: {name: repr(value) for name, value in vars(link).items()}
        for link_id, link in state.links.items()
    }


@settings(max_examples=60, deadline=None)
@given(rounds)
def test_journal_recovers_the_live_lineage_exactly(plan):
    with tempfile.TemporaryDirectory() as directory:
        journal = StateJournal(directory, checkpoint_every=2, fsync="never")
        journal.start(BASE)
        store = StateStore(BASE, name="live")
        store.attach_journal(journal)
        ring = StateStore(BASE, transition_capacity=None, name="live")
        state, n = BASE, 0
        for round_index, ops in enumerate(plan):
            for op in ops:
                child = step(state, op, n)
                n += 1
                assert repr(diff(state, child)) == repr(reference_diff(state, child))
                store.commit(child)
                ring.commit(child)
                state = child
            journal.commit_round({"round": round_index})
            journal.maybe_checkpoint(state, round_index + 1)

        recovered = recover(directory)
        assert recovered.n_rounds == len(plan)
        assert recovered.state.version == state.version
        assert link_reprs(recovered.state) == link_reprs(state)
        # JSON text tells NaN and signed zeros apart where == cannot
        assert json.dumps(store.timeline()) == json.dumps(ring.timeline())
        journal.close()
