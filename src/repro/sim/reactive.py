"""Reaction-time simulation: scheduled TE vs. alarm-driven steps.

The plain replay (:mod:`repro.sim.replay`) only lets the controller see
the world every TE interval (hours).  Real outages do not wait: a dip
that crosses a link's threshold between rounds silently drops that
link's traffic until the next recomputation.  This simulator walks the
telemetry at full 15-minute resolution and charges that *reaction lag*:

* **scheduled** rounds fire every ``te_interval_s`` as usual;
* **emergency** rounds fire the moment a link's SNR falls below its
  currently configured rate's threshold (reactive mode) — or, in
  proactive mode, the moment the per-link EWMA detector
  (:mod:`repro.telemetry.anomaly`) flags a dip, with the policy fed a
  pessimistic SNR so the link walks down a rung *before* the threshold
  is crossed;
* between rounds, any sample where a link's SNR is below its configured
  threshold loses that link's traffic for the sample — the quantity the
  modes compete on.

The walk is a plain loop over every telemetry sample: the proactive
mode's :class:`~repro.telemetry.anomaly.EwmaAlarmMonitor` sees each
one, the loop charges the lag, and it calls the controller's
:meth:`~repro.core.controller.DynamicCapacityController.step` for every
scheduled or emergency round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.controller import DynamicCapacityController
from repro.core.policies import REACTION_MODES
from repro.faults.inject import FaultInjector
from repro.faults.spec import FaultPlan
from repro.net.demands import Demand
from repro.obs import trace as _trace
from repro.recovery.reports import restore_report
from repro.sim.wiring import controller_run
from repro.telemetry.anomaly import EwmaAlarmMonitor
from repro.telemetry.traces import SnrTrace, TelemetryFeed

@dataclass(frozen=True)
class ReactiveResult:
    """Outcome of one reaction-mode run."""

    mode: str
    n_scheduled_rounds: int
    n_emergency_rounds: int
    #: traffic-volume-time lost to links sitting below their configured
    #: threshold before the controller reacted
    lost_gbps_hours: float
    mean_throughput_gbps: float
    total_downtime_s: float

    @property
    def total_rounds(self) -> int:
        return self.n_scheduled_rounds + self.n_emergency_rounds


def reactive_replay(
    controller: DynamicCapacityController,
    traces_by_link: Mapping[str, SnrTrace],
    demands: Sequence[Demand],
    *,
    te_interval_s: float = 4 * 3600.0,
    mode: str = "reactive",
    pessimism_db: float = 4.0,
    detector_k_sigma: float = 5.0,
    faults: FaultPlan | FaultInjector | None = None,
    te_cache: bool | None = None,
    journal_dir: "str | None" = None,
    resume: bool | str = False,
) -> ReactiveResult:
    """Walk the telemetry sample by sample, charging reaction lag.

    Args:
        controller: fresh controller over the physical topology.
        traces_by_link: one trace per link (shared timebase).
        demands: the traffic matrix for every round.
        te_interval_s: scheduled recomputation period.
        mode: ``"scheduled"`` (rounds only), ``"reactive"`` (emergency
            step on threshold crossing) or ``"proactive"`` (emergency
            step on EWMA dip alarms, with a pessimistic SNR).
        pessimism_db: extra dB subtracted from a dipping link's SNR
            when proactive mode hands it to the policy.
        detector_k_sigma: alarm threshold of the proactive detectors.
        faults, te_cache, journal_dir, resume: the run
            knobs, bound by :func:`repro.sim.wiring.controller_run`.
            Under faults the walk sees faulted telemetry (dropouts
            arrive as NaN, which the dip detectors skip and the
            controller's stale handling absorbs).  On a resume the
            run's accounting (round counters, lag charges,
            throughput history) is rebuilt from the journal and
            already-committed samples pass through untouched, so the
            :class:`ReactiveResult` is byte-identical to an
            uninterrupted run.

    Raises:
        ValueError: for a ``mode`` outside
            :data:`~repro.core.policies.REACTION_MODES`, or a
            ``te_interval_s`` finer than the telemetry — both validated
            before any journal is written, so a typo cannot silently
            run as a different mode or leave a journal behind.
        repro.recovery.journal.ControllerCrash: when an armed
            ``controller.crash`` fault fires mid-run.
    """
    if mode not in REACTION_MODES:
        raise ValueError(
            f"unknown mode {mode!r} (expected one of {REACTION_MODES})"
        )
    detector = (
        EwmaAlarmMonitor(list(traces_by_link), k_sigma=detector_k_sigma)
        if mode == "proactive"
        else None
    )
    with controller_run(
        controller,
        TelemetryFeed(traces_by_link),
        te_interval_s=te_interval_s,
        faults=faults,
        te_cache=te_cache,
        journal_dir=journal_dir,
        resume=resume,
    ) as (feed, clock, restored):
        interval_s = feed.timebase.interval_s
        stride = max(int(te_interval_s // interval_s), 1)
        interval_h = interval_s / 3600.0
        n_scheduled = n_emergency = 0
        lost_gbps_hours = 0.0
        throughputs: list[float] = []
        last_solution = None
        #: samples already in the restored accounting on a journal
        #: resume (the dip detectors still observe them — their state
        #: must evolve exactly as it did before the crash)
        n_skip = 0
        if restored:
            reports = [restore_report(r["report"]) for r in restored]
            last_context = restored[-1]["context"]
            n_scheduled = int(last_context["n_scheduled"])
            n_emergency = int(last_context["n_emergency"])
            lost_gbps_hours = float(last_context["lost_gbps_hours"])
            throughputs = [r.throughput_gbps for r in reports]
            last_solution = reports[-1].solution
            n_skip = int(last_context["sample_index"]) + 1
        with _trace.span(
            "sim.reactive", mode=mode, n_links=len(traces_by_link)
        ) as sp:
            for sample in feed.iter_samples():
                clock.advance_to(sample.time_s)
                snrs = sample.snr_db
                in_dip = detector.observe(sample) if detector is not None else set()
                if sample.index < n_skip:
                    continue

                # 1. charge reaction lag: links below their configured
                # threshold lose their traffic for this sample
                if last_solution is not None:
                    for link_id, snr in snrs.items():
                        capacity = controller.state.capacity_of(link_id)
                        if capacity <= 0:
                            continue
                        if snr < controller.table.required_snr(capacity):
                            lost_gbps_hours += (
                                last_solution.link_flow(link_id) * interval_h
                            )

                # 2. decide whether to run the controller now
                scheduled = sample.index % stride == 0
                if not scheduled and (
                    mode == "scheduled"
                    or not _emergency(
                        controller, snrs, in_dip, mode=mode, pessimism_db=pessimism_db
                    )
                ):
                    continue

                effective = dict(snrs)
                if mode == "proactive":
                    for link_id in in_dip:
                        effective[link_id] = max(snrs[link_id] - pessimism_db, 0.0)
                if scheduled:
                    n_scheduled += 1
                else:
                    n_emergency += 1
                # journaled with the round frame: everything a resumed
                # run needs to rebuild this accounting mid-stream (the
                # counters at their post-round values)
                report = controller.step(
                    effective,
                    demands,
                    context={
                        "time_s": sample.time_s,
                        "sample_index": sample.index,
                        "n_scheduled": n_scheduled,
                        "n_emergency": n_emergency,
                        "lost_gbps_hours": lost_gbps_hours,
                    },
                )
                last_solution = report.solution
                throughputs.append(report.throughput_gbps)
            if sp is not None:
                sp.set(n_rounds=n_scheduled + n_emergency)
    return ReactiveResult(
        mode=mode,
        n_scheduled_rounds=n_scheduled,
        n_emergency_rounds=n_emergency,
        lost_gbps_hours=lost_gbps_hours,
        mean_throughput_gbps=float(np.mean(throughputs)) if throughputs else 0.0,
        total_downtime_s=controller.total_downtime_s,
    )


def _emergency(
    controller: DynamicCapacityController,
    snrs: Mapping[str, float],
    in_dip: set[str],
    *,
    mode: str,
    pessimism_db: float,
) -> bool:
    """Whether this sample calls for an unscheduled round.

    A link below its configured rate's threshold always does; in
    proactive mode so does a dipping link whose pessimistic view would
    walk it down a rung — only then, or a long dip would trigger a round
    at every sample.
    """
    for link_id, snr in snrs.items():
        capacity = controller.state.capacity_of(link_id)
        if capacity <= 0:
            continue
        if snr < controller.table.required_snr(capacity):
            return True
        if mode == "proactive" and link_id in in_dip:
            pessimistic = max(snr - pessimism_db, 0.0)
            target = controller.policy.target_capacity_gbps(capacity, pessimistic)
            if target < capacity:
                return True
    return False
