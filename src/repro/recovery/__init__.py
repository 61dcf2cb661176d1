"""``repro.recovery`` — crash tolerance for the control plane.

Two pieces turn the controller from a process that loses everything
on death into one that resumes mid-round, bit-for-bit:

* :class:`StateJournal` / :func:`recover` / :func:`reopen` — a durable
  write-ahead log of every state transition (length+CRC framed
  canonical JSONL, round frames as commit points, atomic full-state
  checkpoints every K rounds) and the recovery path that replays it,
  truncating torn tails (:mod:`repro.recovery.journal`);
* :func:`report_payload` / :func:`restore_report` — round frames carry
  the full :class:`ControllerReport` so a resumed run hands back the
  complete per-round history (:mod:`repro.recovery.reports`).

Layering: imports state + obs (and, lazily, the controller's report
types when *restoring*); the controller imports this package, never
the other way around at module level.
"""
