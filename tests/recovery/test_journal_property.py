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

Round frames get the same treatment: runs of rounds whose report and
runtime repeat the previous round's are written as short ``repeat``
frames, never as a segment's first round, and recovery resolves each
one back to the payload that was committed, also after a crash at
any seam on a repeat frame and a resume.
"""

import json
import pickle
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.spec import CRASH_SEAMS
from repro.net.topologies import line_topology
from repro.recovery.journal import (
    RecoveryError,
    StateJournal,
    encode_frame,
    recover,
    reopen,
    scan_frames,
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


def segment_records(directory):
    """Each segment's records, segments in version order."""
    segments = sorted(
        Path(directory).glob("wal-*.jsonl"),
        key=lambda p: int(p.stem.split("-")[1]),
    )
    return [scan_frames(path.read_bytes())[0] for path in segments]


def journaled_updates(directory):
    """Each transition frame's ``updates`` as JSON text, in WAL order."""
    return [
        json.dumps(record["updates"], sort_keys=True)
        for records in segment_records(directory)
        for record in records
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


# -- repeat frames -------------------------------------------------------

#: round bodies (every field but ``round`` and ``context``).  Neighbours
#: built from the same body must repeat; neighbours that print other
#: JSON must not; the two pairs that print the same JSON from other
#: bytes (NaN sign bit, key order) may go either way, as a full frame
#: is always correct
BODIES = [
    {"report": {"flow": 0.0}, "runtime": {"rng": 1}},
    {"report": {"flow": -0.0}, "runtime": {"rng": 1}},
    {"report": {"flow": NAN}, "runtime": {"rng": 1}},
    {"report": {"flow": -NAN}, "runtime": {"rng": 1}},  # other NaN bits
    {"report": {"flow": 1.0}, "runtime": {"rng": 1}},
    {"report": {"flow": 1}, "runtime": {"rng": 1}},
    {"report": {"flow": 1.0}, "runtime": {"rng": True}},
    {"runtime": {"rng": 1}, "report": {"flow": 1.0}},  # other key order
    {"report": {"flow": 1.0}, "runtime": {"rng": 1, "extra": [0.0]}},
]

#: runs of (body, length): consecutive rounds share a body
round_runs = st.lists(
    st.tuples(st.sampled_from(range(len(BODIES))), st.integers(1, 4)),
    min_size=1,
    max_size=5,
)


def as_json(value):
    return json.dumps(value, sort_keys=True)


def round_payload(index, body):
    """Round ``index``'s payload, built from fresh objects as a live round is."""
    return {"round": index, "context": {"t": index}, **pickle.loads(pickle.dumps(body))}


def round_frames(directory):
    """The round frames of each segment, segments in version order."""
    return [
        [r for r in records if r["t"] == "round"]
        for records in segment_records(directory)
    ]


def commit_state(store, payload):
    """The round's one state commit."""
    link_id = LINKS[payload["round"] % len(LINKS)]
    store.commit({link_id: {"penalty": float(payload["round"])}}, label="r")


def run_rounds(journal, store, payloads):
    """Commit each payload as a live round: its state commit, then the frame."""
    for payload in payloads:
        commit_state(store, payload)
        journal.commit_round(payload)
        journal.maybe_checkpoint(store.latest, payload["round"] + 1)


def start(directory, checkpoint_every):
    journal = StateJournal(directory, checkpoint_every=checkpoint_every, fsync="never")
    journal.start(BASE)
    store = StateStore(BASE)
    store.attach_journal(journal)
    return journal, store


def expected_repeats(segments, payloads, indices):
    """Per segment: whether each round frame must repeat (``None``: may)."""
    body = [
        as_json({k: v for k, v in p.items() if k not in ("round", "context")})
        for p in payloads
    ]

    def expected(j, r):
        if j == 0 or body[r] != body[r - 1]:
            return False
        return True if indices[r] == indices[r - 1] else None

    return [
        [expected(j, frame["round"]) for j, frame in enumerate(frames)]
        for frames in segments
    ]


@settings(max_examples=60, deadline=None)
@given(round_runs, st.integers(1, 4))
def test_repeated_rounds_write_short_frames_and_recover_in_full(runs, every):
    indices = [i for i, length in runs for _ in range(length)]
    payloads = [round_payload(r, BODIES[i]) for r, i in enumerate(indices)]
    with tempfile.TemporaryDirectory() as directory:
        journal, store = start(directory, every)
        run_rounds(journal, store, payloads)
        journal.close()

        segments = round_frames(directory)
        expected = expected_repeats(segments, payloads, indices)
        for frames, wanted in zip(segments, expected, strict=True):
            for frame, must in zip(frames, wanted, strict=True):
                assert must is None or ("repeat" in frame) == must, frame
        for frame in (f for frames in segments for f in frames):
            if "repeat" in frame:
                assert frame == {
                    "t": "round",
                    "round": frame["round"],
                    "context": {"t": frame["round"]},
                    "repeat": frame["round"] - 1,
                }
        recovered = recover(directory)
        assert [as_json(r) for r in recovered.rounds] == [
            as_json(p) for p in payloads
        ]
        assert link_reprs(recovered.state) == link_reprs(store.latest)


def frame_of(directory, round_index):
    (frame,) = [
        f for frames in round_frames(directory) for f in frames
        if f["round"] == round_index
    ]
    return frame


@pytest.mark.parametrize("seam", CRASH_SEAMS)
@pytest.mark.parametrize("crash_round", [1, 4, 5])
def test_crash_on_a_repeat_frame_resumes_to_the_same_rounds(
    tmp_path, seam, crash_round
):
    # one body throughout and a roll every 3 rounds: only rounds 0, 3
    # and 6 are full frames, so rounds 1, 4 and 5 are repeats
    payloads = [round_payload(i, BODIES[2]) for i in range(8)]
    journal, store = start(tmp_path, 3)
    run_rounds(journal, store, payloads[:crash_round])
    crashed = payloads[crash_round]
    short = encode_frame(
        {
            "t": "round",
            "round": crash_round,
            "context": crashed["context"],
            "repeat": crash_round - 1,
        }
    )
    commit_state(store, crashed)
    if seam == "mid-write":
        journal.write_torn_round(crashed)
    elif seam == "post-commit":
        journal.commit_round(crashed)
    journal.close()
    newest = max(tmp_path.glob("wal-*.jsonl"), key=lambda p: int(p.stem[4:]))
    if seam == "mid-write":
        assert newest.read_bytes().endswith(short[: len(short) * 2 // 3])
    elif seam == "post-commit":
        assert newest.read_bytes().endswith(short)

    recovered = recover(tmp_path)
    committed = crash_round + (seam == "post-commit")
    assert [as_json(r) for r in recovered.rounds] == [
        as_json(p) for p in payloads[:committed]
    ]
    assert recovered.torn_tail_bytes == (
        len(short) * 2 // 3 if seam == "mid-write" else 0
    )

    journal, recovered = reopen(tmp_path, checkpoint_every=3, fsync="never")
    store = StateStore(recovered.state)
    store.attach_journal(journal)
    run_rounds(journal, store, payloads[committed:])
    journal.close()
    # the resumed segment forgets the last frame: its first round is full
    assert "repeat" not in frame_of(tmp_path, committed)
    assert [as_json(r) for r in recover(tmp_path).rounds] == [
        as_json(p) for p in payloads
    ]


def test_the_first_round_after_a_roll_is_full(tmp_path):
    payloads = [round_payload(i, BODIES[0]) for i in range(5)]
    journal, store = start(tmp_path, 2)
    run_rounds(journal, store, payloads)
    journal.close()
    assert [["repeat" in f for f in frames] for frames in round_frames(tmp_path)] == [
        [False, True],
        [False, True],
        [False],
    ]


def test_signed_zero_is_a_change_and_a_held_nan_repeats(tmp_path):
    bodies = [
        {"runtime": {"x": 0.0}},
        {"runtime": {"x": -0.0}},
        {"runtime": {"x": float("nan")}},
        {"runtime": {"x": float("nan")}},  # a new NaN object
    ]
    payloads = [round_payload(i, body) for i, body in enumerate(bodies)]
    journal, store = start(tmp_path, 8)
    run_rounds(journal, store, payloads)
    journal.close()
    assert [["repeat" in f for f in frames] for frames in round_frames(tmp_path)] == [
        [False, False, False, True]
    ]
    rounds = recover(tmp_path).rounds
    assert [repr(r["runtime"]["x"]) for r in rounds] == ["0.0", "-0.0", "nan", "nan"]


def write_segment(directory, records):
    """Checkpoint-0 of the base state and a hand-made segment after it."""
    journal = StateJournal(directory, fsync="never")
    journal.start(BASE)
    journal.close()
    (Path(directory) / "wal-0.jsonl").write_bytes(
        b"".join(encode_frame(r) for r in records)
    )


FULL_0 = {"t": "round", "round": 0, "context": {}, "runtime": {"x": 1}}


@pytest.mark.parametrize(
    "records",
    [
        [{"t": "round", "round": 0, "context": {}, "repeat": -1}],
        [FULL_0, {"t": "round", "round": 2, "context": {}, "repeat": 1}],
        [FULL_0, {"t": "round", "round": 2, "context": {}, "repeat": 0}],
    ],
    ids=["first-in-segment", "names-a-missing-round", "names-an-older-round"],
)
def test_an_orphan_repeat_frame_names_its_segment(tmp_path, records):
    write_segment(tmp_path, records)
    with pytest.raises(RecoveryError, match=r"round \d+ in wal-0\.jsonl"):
        recover(tmp_path)


def test_a_repeat_never_reaches_back_across_a_roll(tmp_path):
    payloads = [round_payload(i, BODIES[0]) for i in range(2)]
    journal, store = start(tmp_path, 1)
    run_rounds(journal, store, payloads)
    journal.close()
    newest = max(tmp_path.glob("wal-*.jsonl"), key=lambda p: int(p.stem[4:]))
    newest.write_bytes(
        encode_frame({"t": "round", "round": 2, "context": {}, "repeat": 1})
    )
    with pytest.raises(RecoveryError, match=f"round 2 in {newest.name}"):
        recover(tmp_path)
