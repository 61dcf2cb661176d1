"""Durable write-ahead journal + checkpoint/recovery for the controller.

The journal turns one controller run into an append-only on-disk record
that survives a process death (``SIGKILL``) at any byte:

* **Framed JSONL segments** (``wal-<version>.jsonl``): every record is
  one line, ``<length>:<crc32 hex>:<canonical json>\\n``.  Length and
  CRC let recovery detect a torn tail (process died mid-``write``) and
  truncate it instead of aborting; canonical JSON (sorted keys, compact
  separators, shortest-repr floats) makes the files byte-deterministic
  across runs — no timestamps ever enter a framed record.
* **Two record kinds.**  A ``transition`` frame carries one
  :class:`~repro.state.store.StateStore` commit: its version chain,
  label and ``updates``, the ``{link_id: {field: new value}}`` mapping
  the commit applied — only what changed, with no before values
  (recovery never reads them).  A ``round`` frame carries the
  controller's round context, its
  :class:`ControllerReport` payload and the runtime snapshot (rng
  states, traffic, BVT rates).  The **round frame is the
  commit point**: recovery only accepts transitions that a later round
  frame covers, so a crash between a state commit and the round commit
  rolls the half-done round back and resume re-executes it — which is
  what makes every crash seam byte-equivalent to the uninterrupted run.
* **Repeat frames.**  A round whose every field but ``round`` and
  ``context`` equals the previous round frame's in the same segment
  (exactly: its ``marshal`` bytes match, so ``-0.0`` is not ``0.0``
  and a held NaN repeats) is written short, as ``{"t": "round",
  "round": r, "context": …, "repeat": r-1}``; recovery takes the
  rest from that previous frame.  Opening a segment (a checkpoint
  roll, :func:`reopen`) forgets the last frame, so every segment's
  first round frame is full and recovery never reads back across
  segments.  On the steady Figure-7 plant
  replay 314 of 360 round frames repeat, and the journal falls from
  about 2,600 to 1,400 bytes per round.
* **Atomic checkpoints** (``checkpoint-<version>.json``): a full
  :func:`~repro.state.serialize.state_to_payload` snapshot written to a
  temp file and ``rename``d into place every ``checkpoint_every`` round
  commits, after which the WAL rolls to a fresh segment.  Recovery
  starts from the newest *valid* checkpoint (a corrupt one falls back
  to the previous, replaying more frames) and applies each committed
  frame's updates with :meth:`~repro.state.model.NetworkState.evolve`,
  the same function the live commit ran, so the recovered state equals
  the live one by construction.  Frame offsets come from the bytes on
  disk (:func:`scan_frames`), never from re-encoding a record.

Two failure models differ in what they need.  A process death needs
only ``write`` plus ``flush``: every frame is flushed as it is
appended, and after ``SIGKILL`` the kernel still holds the written
pages, so committed rounds survive under any ``fsync`` policy.  An
``fsync`` matters only when the OS crashes or the power fails.  The
policy trades that durability for speed: ``"always"`` syncs every
frame, ``"round"`` (default) syncs at each round commit, ``"never"``
only flushes to the OS.  Even ``"round"`` does not yet cover power
loss: no directory is fsynced after a checkpoint rename or a segment's
creation, so a new segment, and every round synced into it, can
vanish.  Closing a segment (at a checkpoint roll or
:meth:`StateJournal.close`) fsyncs it only when bytes were written
since its last fsync, so a segment sealed by a synced round frame is
not synced twice.  Crash *simulation* in-process (the
``controller.crash`` fault) is deterministic under any policy.
"""

from __future__ import annotations

import json
import marshal
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.state.model import NetworkState
from repro.state.serialize import state_from_payload, state_to_payload

FSYNC_POLICIES = ("always", "round", "never")

_CHECKPOINT_PREFIX = "checkpoint-"
_SEGMENT_PREFIX = "wal-"
#: a round frame's own fields: a repeat frame carries these, never the rest
_ROUND_OWN = ("round", "context")


class RecoveryError(RuntimeError):
    """The journal is damaged beyond a recoverable torn tail."""


class ControllerCrash(RuntimeError):
    """A simulated controller process death (``controller.crash`` fault).

    Raised out of :meth:`DynamicCapacityController._commit_round` at the
    configured seam; harnesses catch it, drop the controller, and prove
    that :func:`recover` + resume reproduces the uninterrupted run.
    """

    def __init__(self, round_index: int, seam: str):
        super().__init__(f"controller crashed at round {round_index} ({seam})")
        self.round_index = round_index
        self.seam = seam


# -- frame codec -------------------------------------------------------


def encode_frame(obj: Mapping[str, Any]) -> bytes:
    """One journal record as a length+CRC framed canonical-JSON line."""
    data = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return b"%d:%08x:%s\n" % (len(data), zlib.crc32(data), data)


def scan_frames(raw: bytes) -> tuple[list[dict[str, Any]], list[int]]:
    """Decode consecutive frames; returns ``(records, ends)``.

    ``ends[i]`` is the byte offset just past record ``i`` as it sits in
    ``raw`` (a valid frame need not be canonical JSON, so re-encoding a
    record does not give its length back).  The last end is the clean
    length: everything past it is a torn tail.  Damage is *any* framing
    violation: short header, non-numeric length, CRC mismatch, missing
    newline.  Parsing never raises; the caller decides whether a torn
    tail is acceptable (newest segment) or corruption (interior
    segment).
    """
    records: list[dict[str, Any]] = []
    ends: list[int] = []
    offset = 0
    n = len(raw)
    while offset < n:
        head = raw.find(b":", offset, offset + 21)
        if head < 0:
            break
        try:
            length = int(raw[offset:head])
        except ValueError:
            break
        if length < 0:
            break
        crc_end = head + 9
        body_start = crc_end + 1
        body_end = body_start + length
        if body_end + 1 > n or raw[crc_end : crc_end + 1] != b":":
            break
        try:
            crc = int(raw[head + 1 : crc_end], 16)
        except ValueError:
            break
        body = raw[body_start:body_end]
        if raw[body_end : body_end + 1] != b"\n" or zlib.crc32(body) != crc:
            break
        try:
            records.append(json.loads(body))
        except ValueError:
            break
        offset = body_end + 1
        ends.append(offset)
    return records, ends


# -- repeat detection --------------------------------------------------


def _snapshot(body: Mapping[str, Any]) -> bytes | None:
    """``body``'s exact values as bytes; ``None`` when marshal cannot hold them.

    marshal format 2 writes binary floats and no shared references, so
    equal snapshots hold the same types and bits and so encode to the
    same JSON.  The converse does not hold (NaNs with other bits,
    reordered keys, interned and plain strings); such a round is
    written in full, which is always correct.  A snapshot is a copy:
    the caller may mutate ``body`` afterwards without changing what
    the next round compares against.
    """
    try:
        return marshal.dumps(body, 2)
    except ValueError:
        return None


# -- directory layout --------------------------------------------------


def _checkpoint_path(directory: Path, version: int) -> Path:
    return directory / f"{_CHECKPOINT_PREFIX}{version}.json"


def _segment_path(directory: Path, version: int) -> Path:
    return directory / f"{_SEGMENT_PREFIX}{version}.jsonl"


def _indexed(directory: Path, prefix: str, suffix: str) -> list[tuple[int, Path]]:
    out = []
    for path in directory.iterdir():
        name = path.name
        if name.startswith(prefix) and name.endswith(suffix):
            try:
                out.append((int(name[len(prefix) : -len(suffix)]), path))
            except ValueError:
                continue
    return sorted(out)


def journal_exists(directory: str | Path) -> bool:
    """Whether ``directory`` holds a journal a run could resume from."""
    directory = Path(directory)
    if not directory.is_dir():
        return False
    return bool(
        _indexed(directory, _CHECKPOINT_PREFIX, ".json")
        or _indexed(directory, _SEGMENT_PREFIX, ".jsonl")
    )


# -- the journal -------------------------------------------------------


class StateJournal:
    """Append-only durable log of one controller run.

    Bound to a :class:`~repro.state.store.StateStore` via
    ``store.attach_journal(journal)``: every state commit appends a
    ``transition`` frame, and the controller seals each round with
    :meth:`commit_round`.  ``checkpoint_every`` counts *round commits*
    between full-state checkpoints.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        checkpoint_every: int = 8,
        fsync: str = "round",
    ):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {fsync!r} (valid: {FSYNC_POLICIES})"
            )
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.checkpoint_every = checkpoint_every
        self.fsync = fsync
        self._segment_version = 0  # checkpoint version the segment extends
        self._rounds_since_checkpoint = 0
        self._file: Any | None = None
        self._unsynced = False  # segment bytes written since the last fsync
        #: (round, snapshot) of the segment's last round frame, if any
        self._last_round: tuple[int, bytes | None] | None = None

    # -- segment management -------------------------------------------

    def _open_segment(self, version: int, *, truncate_at: int | None = None) -> None:
        self._close_segment()
        path = _segment_path(self.directory, version)
        if truncate_at is not None and path.exists():
            with open(path, "r+b") as handle:
                handle.truncate(truncate_at)
            self._unsynced = True
        self._file = open(path, "ab")
        self._segment_version = version
        self._last_round = None  # a segment's first round frame is full

    def _close_segment(self) -> None:
        if self._file is not None:
            self._file.flush()
            if self._unsynced:
                os.fsync(self._file.fileno())
                self._unsynced = False
            self._file.close()
            self._file = None

    def close(self) -> None:
        """Flush and close the active segment (idempotent)."""
        self._close_segment()

    def __enter__(self) -> "StateJournal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _append(self, frame: bytes, *, sync: bool) -> None:
        if self._file is None:
            self._open_segment(self._segment_version)
        self._file.write(frame)
        self._file.flush()
        self._unsynced = not sync
        if sync:
            os.fsync(self._file.fileno())

    # -- writing -------------------------------------------------------

    def start(self, state: NetworkState, *, round_index: int = 0) -> None:
        """Seed a fresh journal with checkpoint-0 of the base state."""
        self._write_checkpoint(state, round_index)
        self._open_segment(state.version)

    def append_transition(
        self,
        version: int,
        parent: int | None,
        label: str,
        updates: Mapping[str, Mapping[str, Any]],
    ) -> None:
        """Journal one state commit (the :class:`StateStore` hook)."""
        frame = encode_frame(
            {
                "t": "transition",
                "version": version,
                "parent": parent,
                "label": label,
                "updates": updates,
            }
        )
        self._append(frame, sync=self.fsync == "always")
        _metrics.counter("journal.transitions").inc()

    def _round_frame(
        self, payload: Mapping[str, Any]
    ) -> tuple[bytes, tuple[int, bytes | None]]:
        """The frame that seals ``payload``, and the journal's new last round.

        A round whose every field but ``round`` and ``context`` equals
        the segment's last round frame's, and that frame is the round
        just before it, becomes a short ``repeat`` frame naming it.
        """
        round_index = payload["round"]
        snapshot = _snapshot(
            {k: v for k, v in payload.items() if k not in _ROUND_OWN}
        )
        last = self._last_round
        if (
            snapshot is not None
            and last is not None
            and last[0] == round_index - 1
            and last[1] == snapshot
        ):
            short = {k: payload[k] for k in _ROUND_OWN if k in payload}
            frame = encode_frame({"t": "round", **short, "repeat": last[0]})
        else:
            frame = encode_frame({"t": "round", **payload})
        return frame, (round_index, snapshot)

    def commit_round(self, payload: Mapping[str, Any]) -> None:
        """Seal a round: the durability point for everything before it."""
        frame, last = self._round_frame(payload)
        self._append(frame, sync=self.fsync in ("always", "round"))
        self._last_round = last
        _metrics.counter("journal.rounds").inc()

    def write_torn_round(self, payload: Mapping[str, Any]) -> None:
        """Write a deliberately torn round frame (the mid-write seam).

        Roughly the first two thirds of the frame :meth:`commit_round`
        would write reach the disk — enough to be non-trivially
        damaged, never a valid frame — and the bytes are fsynced so
        recovery faces a genuinely torn tail.
        """
        frame, _ = self._round_frame(payload)
        self._append(frame[: max(3, len(frame) * 2 // 3)], sync=True)

    def maybe_checkpoint(self, state: NetworkState, round_index: int) -> bool:
        """Checkpoint + roll the segment every ``checkpoint_every`` rounds."""
        self._rounds_since_checkpoint += 1
        if self._rounds_since_checkpoint < self.checkpoint_every:
            return False
        self._rounds_since_checkpoint = 0
        self._write_checkpoint(state, round_index)
        self._open_segment(state.version)
        _metrics.counter("journal.checkpoints").inc()
        _trace.point(
            "journal.checkpoint", version=state.version, round=round_index
        )
        return True

    def _write_checkpoint(self, state: NetworkState, round_index: int) -> None:
        payload = {
            "schema": 1,
            "generated_unix": _metrics.timestamp_unix(),
            "round": round_index,
            "state": state_to_payload(state),
        }
        final = _checkpoint_path(self.directory, state.version)
        tmp = final.with_suffix(".json.tmp")
        data = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, final)


# -- recovery ----------------------------------------------------------


@dataclass
class RecoveredRun:
    """Everything :func:`recover` pulled back out of a journal.

    ``state`` is the last *committed* state (transitions covered by a
    round frame); ``rounds`` the full ordered list of committed round
    payloads, each repeat frame resolved to the payload it repeats
    (repeats of one round share its ``report`` and ``runtime``
    objects).  ``n_discarded_transitions`` counts rolled-back frames
    from a half-done round and ``torn_tail_bytes`` how many damaged
    bytes were dropped from the newest segment; ``resume_offset`` is
    the byte length of the clean committed prefix of the newest
    segment (where an appender must truncate before continuing).
    """

    state: NetworkState
    checkpoint_version: int
    checkpoint_round: int
    rounds: list[dict[str, Any]] = field(default_factory=list)
    n_discarded_transitions: int = 0
    torn_tail_bytes: int = 0
    resume_offset: int = 0

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    @property
    def last_round(self) -> dict[str, Any] | None:
        return self.rounds[-1] if self.rounds else None


def _load_checkpoint(path: Path) -> dict[str, Any] | None:
    try:
        payload = json.loads(path.read_bytes())
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or payload.get("schema") != 1:
        return None
    if "state" not in payload or "round" not in payload:
        return None
    return payload


def recover(directory: str | Path) -> RecoveredRun:
    """Rebuild the last committed state from a journal directory.

    Loads the newest checkpoint that parses (corrupt ones fall back to
    older, replaying across more segments), walks every WAL segment in
    order, applies each committed transition's updates with
    :meth:`NetworkState.evolve` (the function the live commit ran),
    and truncates a torn tail on the newest segment.  Interior damage
    — a torn frame in any segment that is not the newest — is
    unrecoverable and raises :class:`RecoveryError`, as is a broken
    version chain or a transition frame without updates.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise RecoveryError(f"no journal at {directory}")
    checkpoints = _indexed(directory, _CHECKPOINT_PREFIX, ".json")
    segments = _indexed(directory, _SEGMENT_PREFIX, ".jsonl")
    if not checkpoints:
        raise RecoveryError(f"no checkpoint in {directory}")

    checkpoint = None
    checkpoint_version = -1
    for version, path in reversed(checkpoints):
        payload = _load_checkpoint(path)
        if payload is not None:
            checkpoint, checkpoint_version = payload, version
            break
    if checkpoint is None:
        raise RecoveryError(f"every checkpoint in {directory} is corrupt")

    state = state_from_payload(checkpoint["state"])
    if state.version != checkpoint_version:
        raise RecoveryError(
            f"checkpoint {checkpoint_version} holds state v{state.version}"
        )
    out = RecoveredRun(
        state=state,
        checkpoint_version=checkpoint_version,
        checkpoint_round=int(checkpoint["round"]),
    )

    newest_segment = segments[-1][0] if segments else None
    for segment_version, path in segments:
        raw = path.read_bytes()
        records, ends = scan_frames(raw)
        clean = ends[-1] if ends else 0
        if clean < len(raw):
            if segment_version != newest_segment:
                raise RecoveryError(
                    f"torn frame inside interior segment {path.name} "
                    f"(offset {clean})"
                )
            out.torn_tail_bytes = len(raw) - clean

        # Transitions commit only when a round frame follows them; a
        # trailing unterminated group is a half-done round to roll back.
        pending: list[dict[str, Any]] = []
        committed_offset = 0
        previous: dict[str, Any] | None = None  # the segment's last round
        for record, end in zip(records, ends):
            kind = record.get("t")
            if kind == "transition":
                pending.append(record)
            elif kind == "round":
                for t in pending:
                    if t["version"] > out.checkpoint_version:
                        # older frames are already in the checkpoint
                        out.state = _replay(out.state, t, path.name)
                pending.clear()
                previous = _resolve_round(record, previous, path.name)
                out.rounds.append(previous)
                committed_offset = end
            else:
                raise RecoveryError(
                    f"unknown record kind {kind!r} in {path.name}"
                )
        if pending:
            if segment_version != newest_segment:
                raise RecoveryError(
                    f"uncommitted transitions inside interior segment "
                    f"{path.name}"
                )
            out.n_discarded_transitions += len(pending)
        if segment_version == newest_segment:
            out.resume_offset = committed_offset

    rounds_sorted = sorted(r["round"] for r in out.rounds)
    if rounds_sorted != list(range(len(out.rounds))):
        raise RecoveryError(
            f"round sequence has gaps or duplicates: {rounds_sorted}"
        )
    _trace.point(
        "journal.recover",
        version=out.state.version,
        rounds=out.n_rounds,
        discarded=out.n_discarded_transitions,
        torn_bytes=out.torn_tail_bytes,
    )
    return out


def _resolve_round(
    record: Mapping[str, Any], previous: dict[str, Any] | None, segment: str
) -> dict[str, Any]:
    """One round frame as its full payload.

    A ``repeat`` frame takes every field but its own ``round`` and
    ``context`` from ``previous``, the segment's preceding round, which
    must be the round it names, one before its own.
    """
    if "repeat" not in record:
        return {k: v for k, v in record.items() if k != "t"}
    round_index = record["round"]
    if (
        previous is None
        or record["repeat"] != previous["round"]
        or record["repeat"] != round_index - 1
    ):
        raise RecoveryError(
            f"round {round_index} in {segment} repeats round "
            f"{record['repeat']}, which is not the segment's previous round"
        )
    resolved = {k: v for k, v in previous.items() if k not in _ROUND_OWN}
    resolved.update(
        (k, v) for k, v in record.items() if k not in ("t", "repeat")
    )
    return resolved


def _replay(
    state: NetworkState, record: Mapping[str, Any], segment: str
) -> NetworkState:
    """Apply one transition frame to its parent state.

    Runs :meth:`NetworkState.evolve` on the frame's updates — the
    function the live commit ran — so the result equals the journaled
    state by construction; only the version is taken from the frame.
    """
    updates = record.get("updates")
    if updates is None:
        raise RecoveryError(
            f"transition v{record.get('version')} in {segment} has no "
            "updates (not a journal this version wrote)"
        )
    if record["parent"] != state.version:
        raise RecoveryError(
            f"broken version chain in {segment}: "
            f"transition v{record['version']} claims parent "
            f"v{record['parent']}, journal is at v{state.version}"
        )
    try:
        child = state.evolve(updates, label=record["label"])
    except (KeyError, ValueError) as exc:
        raise RecoveryError(
            f"transition v{record['version']} in {segment} does not apply: {exc}"
        ) from None
    child.version = record["version"]
    return child


def reopen(directory: str | Path, **kwargs: Any) -> tuple[StateJournal, RecoveredRun]:
    """Recover a journal and return an appender positioned after it.

    The newest segment is physically truncated at the last
    committed-round byte offset, so a resumed run re-executing the
    rolled-back round cannot leave duplicate versions behind.  Handles
    the crash window between a checkpoint write and its segment roll
    (the new segment may not exist yet — it is simply created).
    """
    recovered = recover(directory)
    journal = StateJournal(directory, **kwargs)
    segments = _indexed(Path(directory), _SEGMENT_PREFIX, ".jsonl")
    newest = segments[-1][0] if segments else recovered.checkpoint_version
    if newest < recovered.checkpoint_version:
        # crashed after checkpoint write, before the segment roll
        newest = recovered.checkpoint_version
        journal._open_segment(newest)
    else:
        journal._open_segment(newest, truncate_at=recovered.resume_offset)
    journal._rounds_since_checkpoint = (
        recovered.n_rounds - recovered.checkpoint_round
    )
    return journal, recovered
