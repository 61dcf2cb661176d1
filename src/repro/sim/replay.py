"""Replaying synthetic telemetry through the full control loop.

This is the closed-loop experiment: SNR traces drive the
:class:`~repro.core.controller.DynamicCapacityController`, which
downgrades/fails/upgrades wavelengths, runs the unmodified TE on the
augmented graph, and pays BVT reconfiguration downtime.  The result is
a time series of throughput and churn — what an operator would see on
their dashboards after deploying the paper.

The replay is the paper's periodic loop: every TE interval it reads the
telemetry sample due at that time and hands it to the controller's
:meth:`~repro.core.controller.DynamicCapacityController.step`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.controller import ControllerReport, DynamicCapacityController
from repro.faults.inject import FaultInjector
from repro.faults.spec import FaultPlan
from repro.net.demands import Demand
from repro.obs import trace as _trace
from repro.recovery.reports import restore_report
from repro.sim.wiring import controller_run
from repro.telemetry.traces import SnrTrace, TelemetryFeed


@dataclass(frozen=True)
class ReplayResult:
    """Per-round series produced by :func:`replay_controller`."""

    times_s: np.ndarray
    throughput_gbps: np.ndarray
    n_upgrades: np.ndarray
    n_downgrades: np.ndarray
    n_failed: np.ndarray
    downtime_s: np.ndarray
    reports: tuple[ControllerReport, ...]

    @property
    def n_rounds(self) -> int:
        return len(self.times_s)

    @property
    def mean_throughput_gbps(self) -> float:
        return float(np.mean(self.throughput_gbps))

    @property
    def total_capacity_changes(self) -> int:
        return int(np.sum(self.n_upgrades) + np.sum(self.n_downgrades))

    @property
    def total_downtime_s(self) -> float:
        return float(np.sum(self.downtime_s))


def replay_controller(
    controller: DynamicCapacityController,
    traces_by_link: Mapping[str, SnrTrace],
    demands: Sequence[Demand],
    *,
    te_interval_s: float = 4 * 3600.0,
    max_rounds: int | None = None,
    faults: FaultPlan | FaultInjector | None = None,
    te_cache: bool | None = None,
    journal_dir: "str | None" = None,
    resume: bool | str = False,
) -> ReplayResult:
    """Drive ``controller`` with trace samples every ``te_interval_s``.

    Args:
        controller: a fresh controller over the physical topology.
        traces_by_link: one SNR trace per physical link id; all traces
            must share a timebase.
        demands: traffic matrix used at every round (vary externally by
            calling in chunks if needed).
        te_interval_s: TE recomputation period (SWAN-style minutes-to-
            hours; default 4 h keeps long replays tractable).
        max_rounds: stop early after this many rounds.
        faults, te_cache, journal_dir, resume: the run
            knobs, bound by :func:`repro.sim.wiring.controller_run`.
            On a resume the recovered rounds are replayed into the
            result arrays and the loop skips that many rounds, so the
            :class:`ReplayResult` is byte-identical to an uninterrupted
            run.

    Raises:
        repro.recovery.journal.ControllerCrash: when an armed
            ``controller.crash`` fault fires mid-run (the journal then
            holds everything a ``resume`` run needs).
    """
    with controller_run(
        controller,
        TelemetryFeed(traces_by_link),
        te_interval_s=te_interval_s,
        faults=faults,
        te_cache=te_cache,
        journal_dir=journal_dir,
        resume=resume,
    ) as (feed, clock, restored):
        times: list[float] = []
        reports = [restore_report(r["report"]) for r in restored]
        stride = max(int(te_interval_s // feed.timebase.interval_s), 1)
        if max_rounds is not None:
            # a resumed run reports at least the rounds its journal holds
            max_rounds = max(max_rounds, len(reports))
        with _trace.span(
            "sim.replay", n_links=len(traces_by_link), te_interval_s=te_interval_s
        ) as sp:
            # every round's sample is read from t=0 either way (that is
            # what keeps positionally-keyed fault streams aligned, and
            # it gives the recovered rounds their times); the recovered
            # rounds themselves must not re-execute
            for sample in feed.iter_samples(stride=stride, max_samples=max_rounds):
                clock.advance_to(sample.time_s)
                times.append(sample.time_s)
                if len(times) <= len(reports):
                    continue
                report = controller.step(sample.snr_db, demands)
                reports.append(report)
            if sp is not None:
                sp.set(n_rounds=len(reports))

    return ReplayResult(
        times_s=np.asarray(times),
        throughput_gbps=np.asarray([r.throughput_gbps for r in reports]),
        n_upgrades=np.asarray([len(r.upgrades) for r in reports]),
        n_downgrades=np.asarray([len(r.downgrades) for r in reports]),
        n_failed=np.asarray([len(r.failed_links) for r in reports]),
        downtime_s=np.asarray([r.reconfiguration_downtime_s for r in reports]),
        reports=tuple(reports),
    )
