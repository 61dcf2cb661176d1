"""Fixed-seed scenarios whose metrics pin the pre-engine behaviour.

Every builder returns a plain dict of JSON scalars/lists extracted from
the public result dataclasses (``ReplayResult``, ``ReactiveResult``,
``WhatIfReport``, ``NetworkAvailabilityReport``, ``TestbedReport``).
Floats go through :func:`canonical_json` unrounded, so a comparison of
the serialized form is a bit-for-bit comparison of the results.

Builders take the how-to-run knobs that apply to them and pass them
through: ``te_cache``, ``journal``/``journal_dir`` (see
:data:`JOURNAL_MODES`) and ``workers``.  Without knobs they run the
defaults.
"""

from __future__ import annotations

import json
import os

import numpy as np

SCENARIOS = {}


def scenario(fn):
    SCENARIOS[fn.__name__.removeprefix("golden_")] = fn
    return fn


def canonical_json(metrics: dict) -> str:
    """Deterministic serialization: sorted keys, exact float repr."""
    return json.dumps(metrics, sort_keys=True, indent=1) + "\n"


def _floats(array) -> list[float]:
    return [float(x) for x in np.asarray(array).ravel()]


def _ints(array) -> list[int]:
    return [int(x) for x in np.asarray(array).ravel()]


#: the journal knob of the controller replays: off, on, re-run over the
#: finished journal, or crashed at round 1 at a commit seam then resumed
JOURNAL_MODES = (
    None, "on", "rerun", "crash-pre-commit", "crash-post-commit", "crash-mid-write"
)


def _journaled(run, journal: str | None, journal_dir: str | None):
    """``run(**journal_kwargs)`` under one journal mode; the last result."""
    from repro.faults.spec import FaultPlan, FaultSpec
    from repro.recovery.journal import ControllerCrash

    if journal is None:
        return run()
    if journal == "rerun":
        run(journal_dir=journal_dir)
    elif journal != "on":
        seam = journal.removeprefix("crash-")
        crash = FaultSpec("controller.crash", crash_round=1, crash_seam=seam)
        try:
            run(journal_dir=journal_dir, faults=FaultPlan(specs=(crash,)))
        except ControllerCrash:
            pass
        else:
            raise AssertionError(f"{journal}: the crash fault never fired")
    return run(journal_dir=journal_dir, resume=journal != "on")


def _controller_scenario(seed_traces: int, seed_demands: int, *, days: float,
                         dip_start_s: float, dip_hours: float, dip_db: float):
    from repro.net.demands import gravity_demands
    from repro.net.topologies import line_topology
    from repro.optics.impairments import AmplifierDegradation
    from repro.telemetry.timebase import Timebase
    from repro.telemetry.traces import NoiseModel, synthesize_cable_traces

    topology = line_topology(3)
    timebase = Timebase.from_duration(days=days)
    link_ids = [l.link_id for l in topology.real_links()]
    events = [AmplifierDegradation(dip_start_s, dip_hours * 3600.0, dip_db)]
    traces = synthesize_cable_traces(
        "golden-cable",
        np.full(len(link_ids), 16.0),
        timebase,
        events,
        {},
        NoiseModel(sigma_db=0.05, wander_amplitude_db=0.0),
        np.random.default_rng(seed_traces),
    )
    demands = gravity_demands(
        topology, 500.0, np.random.default_rng(seed_demands)
    )
    return topology, dict(zip(link_ids, traces)), demands


@scenario
def golden_replay(
    *, te_cache: bool | None = None, journal: str | None = None, journal_dir=None
) -> dict:
    from repro.core.controller import DynamicCapacityController
    from repro.core.policies import run_policy
    from repro.sim.replay import replay_controller

    topology, traces, demands = _controller_scenario(
        1, 2, days=2.0, dip_start_s=86_400.0, dip_hours=5.0, dip_db=9.0
    )

    def run(**kwargs):
        controller = DynamicCapacityController(topology, policy=run_policy(), seed=0)
        return replay_controller(
            controller, traces, demands, te_interval_s=6 * 3600.0, te_cache=te_cache, **kwargs
        )

    result = _journaled(run, journal, journal_dir)
    return {
        "n_rounds": result.n_rounds,
        "times_s": _floats(result.times_s),
        "throughput_gbps": _floats(result.throughput_gbps),
        "n_upgrades": _ints(result.n_upgrades),
        "n_downgrades": _ints(result.n_downgrades),
        "n_failed": _ints(result.n_failed),
        "downtime_s": _floats(result.downtime_s),
        "mean_throughput_gbps": float(result.mean_throughput_gbps),
        "total_capacity_changes": int(result.total_capacity_changes),
        "total_downtime_s": float(result.total_downtime_s),
        "report_batches": [int(r.n_reconfiguration_batches) for r in result.reports],
        "report_disrupted_gbps": [
            float(r.traffic_disrupted_gbps) for r in result.reports
        ],
    }


@scenario
def golden_reactive(
    *, te_cache: bool | None = None, journal: str | None = None, journal_dir=None
) -> dict:
    from repro.core.controller import DynamicCapacityController
    from repro.core.policies import run_policy
    from repro.sim.reactive import reactive_replay

    metrics: dict = {}
    for mode in ("scheduled", "reactive", "proactive"):
        topology, traces, demands = _controller_scenario(
            1, 2, days=2.0, dip_start_s=86_400.0 + 2_700.0,
            dip_hours=6.0, dip_db=10.0,
        )

        def run(**kwargs):
            controller = DynamicCapacityController(topology, policy=run_policy(), seed=0)
            return reactive_replay(
                controller, traces, demands, te_interval_s=4 * 3600.0, mode=mode,
                te_cache=te_cache, **kwargs,
            )

        result = _journaled(run, journal, journal_dir and os.path.join(journal_dir, mode))
        metrics[mode] = {
            "mode": result.mode,
            "n_scheduled_rounds": int(result.n_scheduled_rounds),
            "n_emergency_rounds": int(result.n_emergency_rounds),
            "lost_gbps_hours": float(result.lost_gbps_hours),
            "mean_throughput_gbps": float(result.mean_throughput_gbps),
            "total_downtime_s": float(result.total_downtime_s),
        }
    return metrics


@scenario
def golden_whatif(*, te_cache: bool | None = None, workers: int | None = None) -> dict:
    from repro.net.demands import Demand
    from repro.net.srlg import duplex_srlgs
    from repro.net.topologies import figure7_topology
    from repro.optics.impairments import RootCause
    from repro.sim.whatif import replay_tickets
    from repro.tickets.model import Ticket

    topology = figure7_topology()
    srlgs = duplex_srlgs(topology)
    cables = list(srlgs.cables())
    causes = (
        RootCause.HARDWARE,
        RootCause.FIBER_CUT,
        RootCause.MAINTENANCE,
        RootCause.UNDOCUMENTED,
    )
    tickets = [
        Ticket(
            ticket_id=f"TKT-{i:06d}",
            root_cause=causes[i % len(causes)],
            opened_s=1_000.0 * (7 - i),  # deliberately not time-ordered
            duration_s=(2.0 + i) * 3600.0,
            element=cables[i % len(cables)],
        )
        for i in range(8)
    ]
    demands = [Demand("A", "D", 150.0), Demand("B", "C", 80.0)]
    report = replay_tickets(
        topology, demands, tickets, srlgs, workers=workers, te_cache=te_cache
    )
    return {
        "n_tickets": int(report.n_tickets),
        "n_impactful": int(report.n_impactful),
        "n_fully_mitigated": int(report.n_fully_mitigated),
        "total_rescued_gbps_hours": float(report.total_rescued_gbps_hours),
        "verdicts": [
            {
                "ticket_id": v.ticket.ticket_id,
                "element": v.ticket.element,
                "binary_loss_gbps": float(v.binary_loss_gbps),
                "dynamic_loss_gbps": float(v.dynamic_loss_gbps),
                "rescued_gbps_hours": float(v.rescued_gbps_hours),
            }
            for v in report.verdicts
        ],
    }


@scenario
def golden_network_availability(
    *, te_cache: bool | None = None, workers: int | None = None
) -> dict:
    from repro.net.demands import Demand
    from repro.net.srlg import duplex_srlgs
    from repro.net.topologies import figure7_topology
    from repro.sim.network_availability import cable_event_impacts

    topology = figure7_topology()
    srlgs = duplex_srlgs(topology)
    demands = [Demand("A", "D", 150.0), Demand("B", "C", 80.0)]
    report = cable_event_impacts(
        topology, demands, srlgs, workers=workers, te_cache=te_cache
    )
    return {
        "mean_rescued_gbps": float(report.mean_rescued_gbps),
        "cables_fully_survivable": int(report.cables_fully_survivable),
        "worst_binary_loss_cable": report.worst_binary_loss.cable,
        "impacts": [
            {
                "cable": i.cable,
                "baseline_gbps": float(i.baseline_gbps),
                "binary_gbps": float(i.binary_gbps),
                "dynamic_gbps": float(i.dynamic_gbps),
            }
            for i in report.impacts
        ],
    }


@scenario
def golden_testbed() -> dict:
    from repro.bvt.testbed import Testbed

    report = Testbed(seed=68).run_figure6_experiment(25)
    return {
        "n_trials": int(report.n_trials),
        "standard_downtimes_s": _floats(report.standard_downtimes_s),
        "efficient_downtimes_s": _floats(report.efficient_downtimes_s),
        "standard_mean_s": float(report.standard_mean_s),
        "efficient_mean_s": float(report.efficient_mean_s),
        "speedup": float(report.speedup),
    }


def run_all() -> dict[str, str]:
    """Run every scenario; returns name -> canonical JSON text."""
    return {name: canonical_json(fn()) for name, fn in SCENARIOS.items()}
