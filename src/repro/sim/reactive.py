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

The walk is an engine scenario: a
:class:`~repro.engine.sources.TelemetrySource` streams one ``telemetry.sample``
event per grid point, the :class:`~repro.engine.sources.EwmaAlarmMonitor` turns
dips into ``anomaly.alarm`` events, and the sample handler publishes a
``te.round`` or ``te.emergency`` notification for every control-loop
step it triggers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.controller import DynamicCapacityController
from repro.engine.kernel import Engine, Event
from repro.engine.sources import EwmaAlarmMonitor, TelemetryFeed, TelemetrySource
from repro.faults.inject import FaultInjector
from repro.faults.spec import FaultPlan
from repro.net.demands import Demand
from repro.obs import trace as _trace
from repro.recovery.reports import restore_report
from repro.sim.wiring import controller_run
from repro.telemetry.traces import SnrTrace

_MODES = ("scheduled", "reactive", "proactive")


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


class _ReactionScenario:
    """Per-sample event handler charging reaction lag between rounds."""

    def __init__(
        self,
        engine: Engine,
        controller: DynamicCapacityController,
        demands: Sequence[Demand],
        *,
        mode: str,
        stride: int,
        interval_h: float,
        pessimism_db: float,
        monitor: EwmaAlarmMonitor | None,
    ):
        self.engine = engine
        self.controller = controller
        self.demands = demands
        self.mode = mode
        self.stride = stride
        self.interval_h = interval_h
        self.pessimism_db = pessimism_db
        self.monitor = monitor
        self.n_scheduled = 0
        self.n_emergency = 0
        self.lost_gbps_hours = 0.0
        self.throughputs: list[float] = []
        self.last_solution = None
        #: samples to pass through untouched on a journal resume (the
        #: EWMA detectors still observe them — their state must evolve
        #: exactly as it did before the crash)
        self.skip_samples = 0

    def on_sample(self, event: Event) -> None:
        sample = event.payload
        snrs = sample.snr_db
        controller = self.controller
        in_dip: set[str] = set()
        if self.monitor is not None:
            in_dip = self.monitor.observe(self.engine, sample)
        if self.skip_samples > 0:
            # journal resume: this sample's effects (lag charges,
            # rounds) are already in the restored accounting
            self.skip_samples -= 1
            return

        # 1. charge reaction lag: links below their configured threshold
        if self.last_solution is not None:
            for link_id, snr in snrs.items():
                capacity = controller.capacity.get(link_id, 0.0)
                if capacity <= 0:
                    continue
                threshold = controller.table.required_snr(capacity)
                if snr < threshold:
                    self.lost_gbps_hours += (
                        self.last_solution.link_flow(link_id) * self.interval_h
                    )

        # 2. decide whether to run the controller now
        scheduled = sample.index % self.stride == 0
        emergency = False
        if not scheduled and self.mode != "scheduled":
            for link_id, snr in snrs.items():
                capacity = controller.capacity.get(link_id, 0.0)
                if capacity <= 0:
                    continue
                if snr < controller.table.required_snr(capacity):
                    emergency = True
                    break
                if self.mode == "proactive" and link_id in in_dip:
                    # fire only if the pessimistic view would actually
                    # change this link — otherwise a long dip would
                    # trigger a round at every sample
                    pessimistic = max(snr - self.pessimism_db, 0.0)
                    target = controller.policy.target_capacity_gbps(
                        capacity, pessimistic
                    )
                    if target < capacity:
                        emergency = True
                        break
        if not (scheduled or emergency):
            return

        effective = dict(snrs)
        if self.mode == "proactive":
            for link_id in in_dip:
                effective[link_id] = max(
                    snrs[link_id] - self.pessimism_db, 0.0
                )
        # journaled with the round frame: everything a resumed run
        # needs to rebuild this scenario's accounting mid-stream (the
        # counters are written at their post-round values — the round
        # being committed is this one)
        controller._round_context = {
            "time_s": sample.time_s,
            "sample_index": sample.index,
            "n_scheduled": self.n_scheduled + (1 if scheduled else 0),
            "n_emergency": self.n_emergency + (0 if scheduled else 1),
            "lost_gbps_hours": self.lost_gbps_hours,
        }
        report = controller.step(effective, self.demands)
        self.last_solution = report.solution
        self.throughputs.append(report.throughput_gbps)
        if scheduled:
            self.n_scheduled += 1
            self.engine.publish("te.round", report)
        else:
            self.n_emergency += 1
            self.engine.publish("te.emergency", report)

    def result(self) -> ReactiveResult:
        return ReactiveResult(
            mode=self.mode,
            n_scheduled_rounds=self.n_scheduled,
            n_emergency_rounds=self.n_emergency,
            lost_gbps_hours=self.lost_gbps_hours,
            mean_throughput_gbps=(
                float(np.mean(self.throughputs)) if self.throughputs else 0.0
            ),
            total_downtime_s=self.controller.total_downtime_s,
        )


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
    invariants: str | None = None,
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
        faults, te_cache, journal_dir, resume, invariants: the run
            knobs, bound by :func:`repro.sim.wiring.controller_run`.
            Under faults the walk sees faulted telemetry (dropouts
            arrive as NaN, which the dip detectors skip and the
            controller's stale handling absorbs).  On a resume the
            scenario's accounting (round counters, lag charges,
            throughput history) is rebuilt from the journal and
            already-committed samples pass through untouched, so the
            :class:`ReactiveResult` is byte-identical to an
            uninterrupted run.

    Raises:
        ValueError: for a ``mode`` outside :data:`_MODES`, or a
            ``te_interval_s`` finer than the telemetry — both validated
            before any journal is written, so a typo cannot silently
            run as a different mode or leave a journal behind.
        repro.recovery.journal.ControllerCrash: when an armed
            ``controller.crash`` fault fires mid-run.
        repro.recovery.invariants.InvariantViolationError: when an
            ``abort``-policy monitor stopped the run.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r} (expected one of {_MODES})")
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
        invariants=invariants,
    ) as (engine, feed, restored):
        interval_s = feed.timebase.interval_s
        scenario = _ReactionScenario(
            engine,
            controller,
            demands,
            mode=mode,
            stride=max(int(te_interval_s // interval_s), 1),
            interval_h=interval_s / 3600.0,
            pessimism_db=pessimism_db,
            monitor=detector,
        )
        if restored:
            reports = [restore_report(r["report"]) for r in restored]
            last_context = restored[-1]["context"]
            scenario.n_scheduled = int(last_context["n_scheduled"])
            scenario.n_emergency = int(last_context["n_emergency"])
            scenario.lost_gbps_hours = float(last_context["lost_gbps_hours"])
            scenario.throughputs = [r.throughput_gbps for r in reports]
            scenario.last_solution = reports[-1].solution
            scenario.skip_samples = int(last_context["sample_index"]) + 1
        engine.subscribe(TelemetrySource.KIND, scenario.on_sample)
        engine.add_source(TelemetrySource(feed))
        with _trace.span("sim.reactive", mode=mode, n_links=len(traces_by_link)):
            engine.run()
    return scenario.result()
