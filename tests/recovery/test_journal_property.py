"""Property: a journaled lineage writes what changed and recovers exactly.

Random update sequences on a small topology — NaN telemetry, signed
zeros, dark crossings in both directions and every mutable field — are
committed through a journaled :class:`StateStore` with a round frame
after each round and a checkpoint roll every two rounds.  Then:

* every transition frame's ``updates`` equal a reference change
  mapping computed from the parent state with ``repr`` comparisons,
  apart from the store's own filter (compared as JSON text, which
  tells NaN and signed zeros apart where ``==`` cannot);
* the store's state equals the state the unfiltered updates evolve;
* ``recover(dir).state`` equals the live state field by field, by
  ``repr``.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.net.topologies import line_topology
from repro.recovery.journal import StateJournal, recover, scan_frames
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


def same_value(old, new):
    """Floats compare by ``repr`` (NaN is NaN, -0.0 is not 0.0), the rest by ``==``."""
    if isinstance(old, float) and isinstance(new, float):
        return repr(old) == repr(new)
    return old == new


def reference_changes(parent, updates):
    """The fields of ``updates`` whose value differs from ``parent``'s."""
    changes = {}
    for link_id, fields in updates.items():
        link = parent.link(link_id)
        kept = {
            name: value
            for name, value in fields.items()
            if not same_value(getattr(link, name), value)
        }
        if kept:
            changes[link_id] = kept
    return changes


def as_updates(op):
    """One generated operation as the ``{link: {field: new}}`` it commits."""
    kind, arg = op
    if kind == "evolve":
        return arg
    capacity = 0.0 if kind == "darken" else 100.0
    return {link_id: {"capacity_gbps": capacity} for link_id in arg}


def journaled_updates(directory):
    """Each transition frame's ``updates`` as JSON text, in WAL order."""
    segments = sorted(
        Path(directory).glob("wal-*.jsonl"),
        key=lambda p: int(p.stem.split("-")[1]),
    )
    return [
        json.dumps(record["updates"], sort_keys=True)
        for path in segments
        for record in scan_frames(path.read_bytes())[0]
        if record["t"] == "transition"
    ]


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
        unfiltered, expected, n = BASE, [], 0
        for round_index, ops in enumerate(plan):
            for op in ops:
                updates = as_updates(op)
                expected.append(
                    json.dumps(
                        reference_changes(store.latest, updates), sort_keys=True
                    )
                )
                label = f"{op[0]}-{n}"
                n += 1
                store.commit(updates, label=label)
                unfiltered = unfiltered.evolve(updates, label=label)
            journal.commit_round({"round": round_index})
            journal.maybe_checkpoint(store.latest, round_index + 1)
        journal.close()

        assert journaled_updates(directory) == expected
        live = store.latest
        assert live.version == unfiltered.version == n
        assert link_reprs(live) == link_reprs(unfiltered)
        recovered = recover(directory)
        assert recovered.n_rounds == len(plan)
        assert recovered.state.version == live.version
        assert link_reprs(recovered.state) == link_reprs(live)


def journal_one_commit(directory, before, updates):
    """Journal ``before`` (one link's fields) then ``updates``; returns the
    second transition frame's raw bytes."""
    link_id = LINKS[0]
    journal = StateJournal(directory, fsync="never")
    journal.start(BASE)
    store = StateStore(BASE)
    store.attach_journal(journal)
    store.commit({link_id: before}, label="before")
    store.commit({link_id: updates}, label="after")
    journal.close()
    raw = (Path(directory) / "wal-0.jsonl").read_bytes()
    return raw.splitlines()[1], store.latest


def test_nan_to_nan_is_no_change(tmp_path):
    frame, state = journal_one_commit(
        tmp_path, {"snr_db": NAN}, {"snr_db": float("nan")}
    )
    assert frame.endswith(b'"updates":{},"version":2}')
    assert state.version == 2


def test_positive_to_negative_zero_is_a_change(tmp_path):
    frame, state = journal_one_commit(
        tmp_path, {"headroom_gbps": 0.0}, {"headroom_gbps": -0.0}
    )
    assert b'"updates":{"%s":{"headroom_gbps":-0.0}}' % LINKS[0].encode() in frame
    assert repr(state.link(LINKS[0]).headroom_gbps) == "-0.0"


def test_all_no_op_commit_bumps_the_version_and_writes_empty_updates(tmp_path):
    link = BASE.link(LINKS[0])
    frame, state = journal_one_commit(
        tmp_path,
        {"capacity_gbps": link.capacity_gbps},
        {"penalty": link.penalty, "modulation": link.modulation},
    )
    assert frame.endswith(b'"updates":{},"version":2}')
    assert state.version == 2
    assert state.links == BASE.links
    assert recover(tmp_path).state.version == 0  # no round frame sealed it
