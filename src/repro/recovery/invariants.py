"""Runtime safety invariants over the live control loop.

:class:`InvariantMonitor` is called once per round: the controller runs
(:mod:`repro.sim.replay`, :mod:`repro.sim.reactive`) hand it each
round's report right after the step, and it checks the controller's
committed state against four invariants that must hold in any correct
run, faulted or not:

* **ber** — no link is configured above the capacity its latest SNR
  reading supports (the BER-feasibility contract the adaptation policy
  exists to keep);
* **stale-restore** — no round reports a link both restored *and*
  decided on stale telemetry (a dark link must never relight on a held
  or fallen-back reading);
* **version-chain** — the state lineage's version strictly increases
  and every snapshot's parent precedes it (a rewind or fork in the
  authoritative record means two components disagree about history);
* **journal-lineage** — the durable journal's newest transition matches
  the in-memory store's (a divergence means a crash now would recover a
  *different* network than the one being operated).

What a violation *does* is the ``policy``: ``"record"`` traces and
counts it, ``"degrade"`` additionally forces BER-violating links down
to their feasible capacity, ``"abort"`` marks the monitor :attr:`fatal`
(the run stops after that round, closes its journal and then raises
:class:`InvariantViolationError`).  Every violation emits an
``invariant.violation`` trace point and an ``invariants.violations``
counter, which ``run_summary`` surfaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

POLICIES = ("record", "degrade", "abort")


@dataclass(frozen=True)
class InvariantViolation:
    """One detected breach: which invariant, where, and the evidence."""

    invariant: str
    link_id: str | None
    detail: str

    def payload(self) -> dict[str, Any]:
        return {
            "invariant": self.invariant,
            "link_id": self.link_id,
            "detail": self.detail,
        }


class InvariantViolationError(RuntimeError):
    """An ``abort``-policy monitor stopped the run."""

    def __init__(self, violations: tuple[InvariantViolation, ...]):
        first = violations[0]
        super().__init__(
            f"invariant {first.invariant!r} violated: {first.detail} "
            f"({len(violations)} violation(s) total)"
        )
        self.violations = violations


class InvariantMonitor:
    """The runtime safety invariants, checked after every round."""

    def __init__(self, controller: Any, *, policy: str = "record"):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r} (valid: {POLICIES})")
        self.controller = controller
        self.policy = policy
        self.violations: list[InvariantViolation] = []
        #: set when an ``abort`` fired; the hosting run stops and raises
        self.fatal = False
        self._last_version: int | None = None

    # -- the checks ----------------------------------------------------

    def check_round(self, report: Any) -> None:
        """Run every invariant against the post-round committed state.

        A no-op once an ``abort`` has fired: the run is over.
        """
        if self.fatal:
            return
        found: list[InvariantViolation] = []
        found.extend(self._check_ber())
        found.extend(self._check_stale_restore(report))
        found.extend(self._check_version_chain())
        found.extend(self._check_journal_lineage())
        if found:
            self._react(found)

    def _check_ber(self) -> list[InvariantViolation]:
        controller = self.controller
        table = controller.table
        out = []
        for link_id, link in controller.state.links.items():
            snr = link.snr_db
            if link.capacity_gbps <= 0 or snr is None or math.isnan(snr):
                continue
            feasible = table.feasible_capacity(snr)
            if link.capacity_gbps > feasible + 1e-9:
                out.append(
                    InvariantViolation(
                        "ber",
                        link_id,
                        f"configured {link.capacity_gbps:g} Gbps above the "
                        f"{feasible:g} Gbps its SNR {snr:.2f} dB supports",
                    )
                )
        return out

    def _check_stale_restore(self, report: Any) -> list[InvariantViolation]:
        if report is None:
            return []
        overlap = set(report.restored_links) & set(report.stale_links)
        return [
            InvariantViolation(
                "stale-restore",
                link_id,
                "link restored in a round that decided it on stale telemetry",
            )
            for link_id in sorted(overlap)
        ]

    def _check_version_chain(self) -> list[InvariantViolation]:
        latest = self.controller.state
        out = []
        if self._last_version is not None and latest.version < self._last_version:
            out.append(
                InvariantViolation(
                    "version-chain",
                    None,
                    f"state rewound from v{self._last_version} "
                    f"to v{latest.version}",
                )
            )
        if (
            latest.parent_version is not None
            and latest.parent_version >= latest.version
        ):
            out.append(
                InvariantViolation(
                    "version-chain",
                    None,
                    f"v{latest.version} claims parent "
                    f"v{latest.parent_version}",
                )
            )
        self._last_version = latest.version
        return out

    def _check_journal_lineage(self) -> list[InvariantViolation]:
        journal = self.controller.state_store.journal
        if journal is None or journal.last_version is None:
            return []
        store_version = self.controller.state.version
        if journal.last_version != store_version:
            return [
                InvariantViolation(
                    "journal-lineage",
                    None,
                    f"journal is at v{journal.last_version}, "
                    f"store at v{store_version}",
                )
            ]
        return []

    # -- reacting ------------------------------------------------------

    def _react(self, found: list[InvariantViolation]) -> None:
        for violation in found:
            self.violations.append(violation)
            _metrics.counter(
                "invariants.violations", invariant=violation.invariant
            ).inc()
            _trace.point(
                "invariant.violation", policy=self.policy, **violation.payload()
            )
        if self.policy == "degrade":
            self._degrade(found)
        elif self.policy == "abort":
            self.fatal = True

    def _degrade(self, found: list[InvariantViolation]) -> None:
        controller = self.controller
        for violation in found:
            if violation.invariant != "ber" or violation.link_id is None:
                continue
            link = controller.state.links[violation.link_id]
            feasible = controller.table.feasible_capacity(link.snr_db)
            controller.enforce_capacity(
                violation.link_id, feasible, label="invariant.degrade"
            )

    def raise_if_fatal(self) -> None:
        """Raise :class:`InvariantViolationError` after an abort."""
        if self.fatal:
            raise InvariantViolationError(tuple(self.violations))
