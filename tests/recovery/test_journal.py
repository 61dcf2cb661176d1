"""Unit tests for the write-ahead journal: framing, recovery, reopen."""

import json
import os
import zlib

import pytest

from repro.net.topologies import line_topology
from repro.recovery.journal import (
    RecoveryError,
    StateJournal,
    encode_frame,
    journal_exists,
    recover,
    reopen,
    scan_frames,
)
from repro.state.model import MUTABLE_LINK_FIELDS, NetworkState
from repro.state.store import StateStore


def make_lineage(n_states=4):
    """A physical base state plus n-1 single-link evolutions."""
    topology = line_topology(3)
    states = [NetworkState.from_topology(topology)]
    link_id = next(iter(states[0].links))
    for i in range(1, n_states):
        states.append(
            states[-1].evolve(
                {link_id: {"capacity_gbps": 50.0 + 25.0 * i}},
                label=f"step-{i}",
            )
        )
    return states


def every_field(state):
    """Updates that restate every mutable field of every link in ``state``.

    Committed onto ``state``'s parent they reproduce ``state``: the
    store drops the fields that did not change.
    """
    return {
        link_id: {name: getattr(link, name) for name in MUTABLE_LINK_FIELDS}
        for link_id, link in state.links.items()
    }


def transition_frames(directory):
    """Every transition frame in the journal's segments, in file order."""
    segments = sorted(
        directory.glob("wal-*.jsonl"), key=lambda p: int(p.stem.split("-")[1])
    )
    return [
        record
        for path in segments
        for record in scan_frames(path.read_bytes())[0]
        if record["t"] == "transition"
    ]


def journal_run(directory, states, *, rounds_at=(), **kwargs):
    """Write ``states[1:]`` as transitions, sealing rounds where asked.

    ``rounds_at`` holds state indices after which a round frame lands
    (round payloads carry their ordinal, like the controller's).
    """
    journal = StateJournal(directory, **kwargs)
    journal.start(states[0])
    store = StateStore(states[0])
    store.attach_journal(journal)
    n_rounds = 0
    for i, state in enumerate(states[1:], start=1):
        store.commit(every_field(state), label=state.label)
        if i in rounds_at:
            journal.commit_round({"round": n_rounds, "marker": i})
            n_rounds += 1
            journal.maybe_checkpoint(state, n_rounds)
    return journal, store


class TestFrameCodec:
    def test_round_trip(self):
        frames = [{"t": "round", "round": i, "x": [1.5, None]} for i in range(5)]
        raw = b"".join(encode_frame(f) for f in frames)
        records, ends = scan_frames(raw)
        assert records == frames
        assert ends[-1] == len(raw)

    def test_every_truncation_point_yields_clean_prefix(self):
        frames = [{"t": "transition", "version": i} for i in range(3)]
        raw = b"".join(encode_frame(f) for f in frames)
        boundaries = [0]
        for f in frames:
            boundaries.append(boundaries[-1] + len(encode_frame(f)))
        for cut in range(len(raw)):
            records, ends = scan_frames(raw[:cut])
            # the clean prefix is exactly the whole frames before the cut
            n_whole = sum(1 for b in boundaries[1:] if b <= cut)
            assert len(records) == n_whole
            assert ends == boundaries[1 : n_whole + 1]

    def test_corrupt_crc_stops_decoding(self):
        good = encode_frame({"t": "round", "round": 0})
        bad = bytearray(encode_frame({"t": "round", "round": 1}))
        bad[-3] ^= 0xFF  # flip a body byte; CRC now mismatches
        records, ends = scan_frames(good + bytes(bad))
        assert records == [{"t": "round", "round": 0}]
        assert ends == [len(good)]

    def test_scan_reports_each_frame_end_as_it_sits_on_disk(self):
        canonical = encode_frame({"t": "round", "round": 0})
        body = json.dumps({"t": "round", "round": 1, "note": "x y"}).encode()
        spaced = b"%d:%08x:%s\n" % (len(body), zlib.crc32(body), body)
        assert b": " in spaced  # valid, CRC-checked, not canonical JSON
        raw = canonical + spaced + b"7:garb"
        records, ends = scan_frames(raw)
        assert [r["round"] for r in records] == [0, 1]
        assert ends == [len(canonical), len(canonical) + len(spaced)]

    def test_garbage_never_raises(self):
        for raw in (b"not a frame", b"12:zzzzzzzz:x\n", b"-5:00000000:\n", b":::"):
            assert scan_frames(raw) == ([], [])

    def test_frames_carry_no_timestamps(self):
        states = make_lineage(3)
        payload = encode_frame(
            {"t": "transition", "version": 1, "parent": 0, "label": "x", "updates": {}}
        )
        assert b"unix" not in payload and b"time" not in payload.lower()
        # and the journal's own record schemas stay wall-clock-free
        del states


class TestTransitionFrames:
    def test_frame_holds_only_the_new_values(self, tmp_path):
        states = make_lineage(2)
        link_id = next(iter(states[0].links))
        journal, _ = journal_run(tmp_path, states, rounds_at=(1,))
        journal.close()
        records, _ = scan_frames((tmp_path / "wal-0.jsonl").read_bytes())
        (frame,) = [r for r in records if r["t"] == "transition"]
        assert frame == {
            "t": "transition",
            "version": 1,
            "parent": 0,
            "label": "step-1",
            "updates": {link_id: {"capacity_gbps": 75.0}},
        }

    def test_frame_without_updates_names_its_segment(self, tmp_path):
        states = make_lineage(2)
        journal = StateJournal(tmp_path)
        journal.start(states[0])
        journal._append(
            encode_frame(
                {"t": "transition", "version": 1, "parent": 0, "label": "x",
                 "deltas": []}
            ),
            sync=False,
        )
        journal.commit_round({"round": 0})
        journal.close()
        with pytest.raises(RecoveryError, match="wal-0.jsonl.*no updates"):
            recover(tmp_path)

    def test_signed_zero_survives_recovery(self, tmp_path):
        states = make_lineage(1)
        link_id = next(iter(states[0].links))
        states.append(
            states[0].evolve(
                {link_id: {"headroom_gbps": -0.0, "capacity_gbps": -0.0}},
                label="zero",
            )
        )
        journal, _ = journal_run(tmp_path, states, rounds_at=(1,))
        journal.close()
        recovered = recover(tmp_path).state.link(link_id)
        assert repr(recovered.headroom_gbps) == "-0.0"
        assert repr(recovered.capacity_gbps) == "-0.0"
        (frame,) = transition_frames(tmp_path)
        assert repr(frame["updates"]) == repr(
            {link_id: {"capacity_gbps": -0.0, "headroom_gbps": -0.0}}
        )


class TestJournalValidation:
    def test_bad_fsync_policy(self, tmp_path):
        with pytest.raises(ValueError, match="fsync"):
            StateJournal(tmp_path, fsync="sometimes")

    def test_bad_checkpoint_cadence(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every"):
            StateJournal(tmp_path, checkpoint_every=0)

    def test_journal_exists(self, tmp_path):
        assert not journal_exists(tmp_path / "nope")
        assert not journal_exists(tmp_path)
        states = make_lineage(2)
        journal, _ = journal_run(tmp_path, states, rounds_at=(1,))
        journal.close()
        assert journal_exists(tmp_path)


class TestRecover:
    def test_round_trip(self, tmp_path):
        states = make_lineage(4)
        journal, _ = journal_run(tmp_path, states, rounds_at=(1, 2, 3))
        journal.close()
        recovered = recover(tmp_path)
        assert recovered.state.links == states[-1].links
        assert recovered.state.version == states[-1].version
        assert recovered.n_rounds == 3
        assert [r["round"] for r in recovered.rounds] == [0, 1, 2]
        assert recovered.n_discarded_transitions == 0
        assert recovered.torn_tail_bytes == 0

    def test_uncommitted_round_rolls_back(self, tmp_path):
        states = make_lineage(4)
        # last transition has no round frame after it: half-done round
        journal, _ = journal_run(tmp_path, states, rounds_at=(1, 2))
        journal.close()
        recovered = recover(tmp_path)
        assert recovered.state.version == states[2].version
        assert recovered.n_rounds == 2
        assert recovered.n_discarded_transitions == 1

    def test_torn_tail_is_truncated(self, tmp_path):
        states = make_lineage(3)
        journal, _ = journal_run(tmp_path, states, rounds_at=(1, 2))
        journal.write_torn_round({"round": 2, "marker": 99})
        journal.close()
        recovered = recover(tmp_path)
        assert recovered.torn_tail_bytes > 0
        assert recovered.n_rounds == 2
        assert recovered.state.version == states[2].version

    def test_corrupt_newest_checkpoint_falls_back(self, tmp_path):
        states = make_lineage(4)
        journal, _ = journal_run(
            tmp_path, states, rounds_at=(1, 2, 3), checkpoint_every=2
        )
        journal.close()
        checkpoints = sorted(tmp_path.glob("checkpoint-*.json"))
        assert len(checkpoints) >= 2
        checkpoints[-1].write_bytes(b"{ not json")
        recovered = recover(tmp_path)
        # the older checkpoint plus delta replay still lands on the tip
        assert recovered.state.links == states[-1].links
        assert recovered.n_rounds == 3

    def test_interior_torn_segment_raises(self, tmp_path):
        states = make_lineage(6)
        journal, _ = journal_run(
            tmp_path, states, rounds_at=(1, 2, 3, 4, 5), checkpoint_every=2
        )
        journal.close()
        segments = sorted(
            tmp_path.glob("wal-*.jsonl"),
            key=lambda p: int(p.stem.split("-")[1]),
        )
        assert len(segments) >= 2
        interior = segments[0]
        interior.write_bytes(interior.read_bytes()[:-4])
        with pytest.raises(RecoveryError, match="interior segment"):
            recover(tmp_path)

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(RecoveryError, match="no journal"):
            recover(tmp_path / "nothing")
        (tmp_path / "empty").mkdir()
        with pytest.raises(RecoveryError, match="no checkpoint"):
            recover(tmp_path / "empty")

    def test_round_gap_raises(self, tmp_path):
        states = make_lineage(2)
        journal = StateJournal(tmp_path)
        journal.start(states[0])
        journal.commit_round({"round": 0})
        journal.commit_round({"round": 2})  # round 1 missing
        journal.close()
        with pytest.raises(RecoveryError, match="gaps or duplicates"):
            recover(tmp_path)


class TestCheckpoints:
    def test_cadence_rolls_segments(self, tmp_path):
        states = make_lineage(7)
        journal, _ = journal_run(
            tmp_path,
            states,
            rounds_at=tuple(range(1, 7)),
            checkpoint_every=2,
        )
        journal.close()
        checkpoints = list(tmp_path.glob("checkpoint-*.json"))
        segments = list(tmp_path.glob("wal-*.jsonl"))
        # checkpoint-0 plus one per 2 rounds; a segment per checkpoint
        assert len(checkpoints) == 4
        assert len(segments) == 4
        recovered = recover(tmp_path)
        assert recovered.state.links == states[-1].links
        assert recovered.n_rounds == 6

    def test_checkpoint_honors_source_date_epoch(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        states = make_lineage(2)
        journal, _ = journal_run(tmp_path, states, rounds_at=(1,))
        journal.close()
        payload = json.loads((tmp_path / "checkpoint-0.json").read_bytes())
        assert payload["generated_unix"] == 1700000000

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        states = make_lineage(3)
        journal, _ = journal_run(
            tmp_path, states, rounds_at=(1, 2), checkpoint_every=1
        )
        journal.close()
        assert not list(tmp_path.glob("*.tmp"))


class TestFsync:
    @staticmethod
    def _count_fsyncs(monkeypatch):
        calls = []
        real = os.fsync

        def counting(fd):
            calls.append(fd)
            real(fd)

        monkeypatch.setattr(os, "fsync", counting)
        return calls

    def test_round_policy_syncs_each_commit_and_checkpoint_once(
        self, tmp_path, monkeypatch
    ):
        calls = self._count_fsyncs(monkeypatch)
        states = make_lineage(17)
        journal, _ = journal_run(
            tmp_path, states, rounds_at=tuple(range(1, 17)), checkpoint_every=8
        )
        journal.close()
        # 16 round commits; checkpoint-0 plus one per 8 rounds.  A
        # segment sealed by its synced round frame closes unsynced
        assert len(calls) == 16 + 3
        assert len(list(tmp_path.glob("checkpoint-*.json"))) == 3
        assert recover(tmp_path).n_rounds == 16

    def test_close_syncs_bytes_written_since_the_last_fsync(
        self, tmp_path, monkeypatch
    ):
        calls = self._count_fsyncs(monkeypatch)
        states = make_lineage(3)
        # the second transition lands after the last round commit
        journal, _ = journal_run(tmp_path, states, rounds_at=(1,))
        n_before_close = len(calls)
        journal.close()
        assert len(calls) == n_before_close + 1
        journal.close()  # idempotent: nothing left to sync
        assert len(calls) == n_before_close + 1


class TestReopen:
    def test_reopen_truncates_and_continues(self, tmp_path):
        states = make_lineage(5)
        # commit rounds 0 and 1, then leave a half-done round + torn tail
        journal, _ = journal_run(tmp_path, states, rounds_at=(1, 2))
        journal.write_torn_round({"round": 2})
        journal.close()

        journal2, recovered = reopen(tmp_path)
        assert recovered.n_rounds == 2
        # the rolled-back round re-executes without duplicate versions
        store = StateStore(recovered.state)
        store.attach_journal(journal2)
        store.commit(
            {next(iter(recovered.state.links)): {"capacity_gbps": 200.0}},
            label="redo",
        )
        journal2.commit_round({"round": 2})
        journal2.close()
        final = recover(tmp_path)
        assert final.n_rounds == 3
        versions = [t["version"] for t in transition_frames(tmp_path)]
        assert versions == sorted(set(versions))

    def test_reopen_after_a_non_canonical_frame_keeps_it(self, tmp_path):
        # a valid frame need not be canonical JSON; the resume offset
        # must come from its bytes on disk, not from re-encoding it
        states = make_lineage(3)
        journal, _ = journal_run(tmp_path, states[:2], rounds_at=(1,))
        link_id = next(iter(states[0].links))
        for record in (
            {"t": "transition", "version": 2, "parent": 1, "label": "step-2",
             "updates": {link_id: {"capacity_gbps": 100.0}}},
            {"t": "round", "round": 1, "marker": 2},
        ):
            body = json.dumps(record).encode()  # spaces after separators
            journal._append(
                b"%d:%08x:%s\n" % (len(body), zlib.crc32(body), body),
                sync=True,
            )
        journal.close()
        size = (tmp_path / "wal-0.jsonl").stat().st_size

        journal2, recovered = reopen(tmp_path)
        assert recovered.n_rounds == 2
        assert recovered.resume_offset == size
        store = StateStore(recovered.state)
        store.attach_journal(journal2)
        store.commit({link_id: {"capacity_gbps": 125.0}}, label="next")
        journal2.commit_round({"round": 2})
        journal2.close()
        final = recover(tmp_path)
        assert final.n_rounds == 3
        assert final.torn_tail_bytes == 0
        assert final.state.link(link_id).capacity_gbps == 125.0

    def test_reopen_after_checkpoint_before_roll(self, tmp_path):
        # crash window: checkpoint written, segment not yet rolled —
        # the segment for the checkpoint version does not exist
        states = make_lineage(3)
        journal, _ = journal_run(
            tmp_path, states, rounds_at=(1, 2), checkpoint_every=2
        )
        journal.close()
        rolled = max(
            tmp_path.glob("wal-*.jsonl"),
            key=lambda p: int(p.stem.split("-")[1]),
        )
        os.unlink(rolled)
        journal2, recovered = reopen(tmp_path)
        assert recovered.n_rounds == 2
        assert recovered.state.links == states[2].links
        journal2.close()
        assert rolled.exists()  # a fresh segment was opened at the checkpoint
