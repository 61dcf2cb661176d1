"""The chaos harness: sweep fault intensity, assert the invariants.

A chaos point runs the full closed loop (3-node line, synthesized SNR
traces with a mid-horizon dip, gravity demands) under
:meth:`FaultPlan.standard <repro.faults.spec.FaultPlan.standard>` at a
given intensity — **twice**, from identical initial state — and
reports both the degradation metrics and whether the two runs were
byte-identical.  :func:`chaos_verdicts` then checks the properties the
hardening claims:

1. **determinism** — every point's paired runs produce byte-identical
   metrics (fault injection is seed-keyed, never wall-clock-keyed);
2. **BER feasibility** — no round left any link configured above the
   capacity its decision-time SNR supports, no matter how hard the
   telemetry lied or the hardware refused;
3. **graceful degradation** — mean throughput decays monotonically-ish
   with intensity (a slack factor absorbs LP tie-breaking noise);
   faults must degrade service, never crash the loop or, worse,
   *improve* reported throughput by dropping accounting.

``repro chaos`` drives this over an intensity grid and exits non-zero
on any violation, making the suite CI-runnable.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.seeds import component_rng

#: slack factor for the monotonic-degradation check: a higher-intensity
#: point may beat a lower one by at most this ratio (LP degeneracy and
#: dropout-masked accounting wiggle, not real improvement)
MONOTONIC_SLACK = 1.10


def _canonical(metrics: Mapping[str, Any]) -> str:
    return json.dumps(metrics, sort_keys=True, separators=(",", ":"))


def _chaos_inputs(days: float, seed: int) -> tuple[Any, dict[str, Any], list[Any]]:
    """The shared scenario of every chaos/crash point.

    Returns ``(topology, traces_by_link, demands)``: a 3-node line,
    synthesized SNR traces with a mid-horizon amplifier dip, gravity
    demands — all seed-keyed, so paired runs start from identical
    state.
    """
    from repro.net.demands import gravity_demands
    from repro.net.topologies import line_topology
    from repro.optics.impairments import AmplifierDegradation
    from repro.telemetry.timebase import Timebase
    from repro.telemetry.traces import NoiseModel, synthesize_cable_traces

    topology = line_topology(3)
    timebase = Timebase.from_duration(days=days)
    link_ids = [l.link_id for l in topology.real_links()]
    events = [
        AmplifierDegradation(0.4 * timebase.duration_s, 6 * 3600.0, 10.0)
    ]
    traces = synthesize_cable_traces(
        "chaos-cable",
        np.full(len(link_ids), 15.0),
        timebase,
        events,
        {},
        NoiseModel(sigma_db=0.08, wander_amplitude_db=0.0),
        component_rng(seed, "chaos.cable"),
    )
    traces_by_link = dict(zip(link_ids, traces))
    demands = gravity_demands(
        topology, 400.0, component_rng(seed, "chaos.demands")
    )
    return topology, traces_by_link, demands


def _policy(name: str) -> Callable[..., Any]:
    """The named run/walk/crawl policy factory, or ``ValueError``."""
    from repro.core.policies import POLICIES

    if name not in POLICIES:
        raise ValueError(f"unknown policy {name!r} (valid: {tuple(POLICIES)})")
    return POLICIES[name]


def run_chaos_point(
    *,
    days: float = 1.0,
    intensity: float = 1.0,
    policy: str = "run",
    seed: int = 7,
    te_interval_h: float = 4.0,
    retries: int = 3,
) -> dict[str, Any]:
    """One intensity point: the paired-run replay plus its metrics.

    Intensity 0 builds **no plan at all** (``faults=None``), so the
    zero point of every sweep doubles as the no-fault regression
    anchor: it must match a plain replay bit for bit.
    """
    from repro.core.controller import DynamicCapacityController, RetryPolicy
    from repro.faults.inject import FaultInjector
    from repro.faults.spec import FaultPlan
    from repro.sim.replay import replay_controller

    make_policy = _policy(policy)

    topology, traces_by_link, demands = _chaos_inputs(days, seed)

    def one_run() -> dict[str, Any]:
        injector = (
            FaultInjector(FaultPlan.standard(intensity, seed=seed))
            if intensity > 0
            else None
        )
        controller = DynamicCapacityController(
            topology,
            policy=make_policy(),
            seed=seed,
            retry=RetryPolicy(max_retries=retries) if retries > 0 else None,
        )
        result = replay_controller(
            controller,
            traces_by_link,
            demands,
            te_interval_s=te_interval_h * 3600.0,
            faults=injector,
        )
        reports = result.reports
        return {
            "n_rounds": int(result.n_rounds),
            "mean_throughput_gbps": float(result.mean_throughput_gbps),
            "total_downtime_s": float(result.total_downtime_s),
            "n_retries": int(sum(r.n_retries for r in reports)),
            "retry_backoff_s": float(sum(r.retry_backoff_s for r in reports)),
            "n_te_fallbacks": int(sum(1 for r in reports if r.te_fallback)),
            "n_reconfig_failures": int(
                sum(len(r.reconfig_failed_links) for r in reports)
            ),
            "n_stale_link_rounds": int(
                sum(len(r.stale_links) for r in reports)
            ),
            "fault_capacity_loss_gbps": float(
                sum(r.fault_capacity_loss_gbps for r in reports)
            ),
            "n_ber_violations": int(
                sum(len(r.ber_violations) for r in reports)
            ),
            "fault_counts": dict(sorted(injector.counts.items()))
            if injector is not None
            else {},
        }

    first = one_run()
    second = one_run()
    return {
        "intensity": float(intensity),
        "policy": policy,
        "byte_identical": _canonical(first) == _canonical(second),
        **first,
    }


def run_crash_point(
    *,
    crash_round: int,
    seam: str,
    journal_dir: str,
    days: float = 1.0,
    policy: str = "run",
    seed: int = 7,
    te_interval_h: float = 4.0,
) -> dict[str, Any]:
    """One crash-equivalence proof: crash, recover, compare.

    Three runs over identical inputs: a **reference** run (no journal,
    no faults) straight through; a **crashed** run journaling to
    ``journal_dir`` with a single ``controller.crash`` fault at
    ``(crash_round, seam)``, which must die mid-run; and a **resumed**
    run recovering that journal (no crash fault this time — a
    ``pre-commit`` crash would otherwise strike the same round
    forever).  The point passes when the resumed run's full per-round
    metric arrays are byte-identical to the reference's.
    """
    from repro.core.controller import DynamicCapacityController
    from repro.faults.spec import FaultPlan, FaultSpec
    from repro.recovery.journal import ControllerCrash
    from repro.sim.replay import ReplayResult, replay_controller

    make_policy = _policy(policy)

    topology, traces_by_link, demands = _chaos_inputs(days, seed)

    def fresh_controller() -> DynamicCapacityController:
        return DynamicCapacityController(topology, policy=make_policy(), seed=seed)

    def run(**kwargs: Any) -> ReplayResult:
        return replay_controller(
            fresh_controller(),
            traces_by_link,
            demands,
            te_interval_s=te_interval_h * 3600.0,
            **kwargs,
        )

    def canonical(result: ReplayResult) -> str:
        return _canonical(
            {
                "times_s": result.times_s.tolist(),
                "throughput_gbps": result.throughput_gbps.tolist(),
                "n_upgrades": result.n_upgrades.tolist(),
                "n_downgrades": result.n_downgrades.tolist(),
                "n_failed": result.n_failed.tolist(),
                "downtime_s": result.downtime_s.tolist(),
                "n_batches": [
                    r.n_reconfiguration_batches for r in result.reports
                ],
                "disrupted_gbps": [
                    r.traffic_disrupted_gbps for r in result.reports
                ],
            }
        )

    reference = run()
    crash_plan = FaultPlan(
        specs=(
            FaultSpec(
                "controller.crash", crash_round=crash_round, crash_seam=seam
            ),
        ),
        seed=seed,
    )
    crashed = False
    try:
        run(faults=crash_plan, journal_dir=journal_dir)
    except ControllerCrash:
        crashed = True
    resumed = run(journal_dir=journal_dir, resume=True)
    reference_canonical = canonical(reference)
    return {
        "crash_round": int(crash_round),
        "seam": seam,
        "policy": policy,
        "crashed": crashed,
        "n_rounds": int(resumed.n_rounds),
        "n_reference_rounds": int(reference.n_rounds),
        "mean_throughput_gbps": float(resumed.mean_throughput_gbps),
        "byte_identical": canonical(resumed) == reference_canonical,
        "canonical": reference_canonical,
    }


def run_crash_sweep(
    crash_rounds: Sequence[int],
    seams: Sequence[str],
    *,
    journal_root: str,
    **point_kwargs: Any,
) -> list[dict[str, Any]]:
    """One :func:`run_crash_point` per (round, seam), fresh journal each."""
    import os

    points = []
    for crash_round in crash_rounds:
        for seam in seams:
            journal_dir = os.path.join(
                journal_root, f"crash-r{crash_round}-{seam}"
            )
            points.append(
                run_crash_point(
                    crash_round=int(crash_round),
                    seam=seam,
                    journal_dir=journal_dir,
                    **point_kwargs,
                )
            )
    return points


def crash_verdicts(points: Sequence[Mapping[str, Any]]) -> list[str]:
    """Crash-equivalence violations (empty == every seam recovered)."""
    problems: list[str] = []
    for p in points:
        where = f"round {p['crash_round']}, seam {p['seam']}"
        if not p["crashed"]:
            problems.append(f"{where}: the crash fault never fired")
        if p["n_rounds"] != p["n_reference_rounds"]:
            problems.append(
                f"{where}: resumed run produced {p['n_rounds']} rounds, "
                f"reference {p['n_reference_rounds']}"
            )
        if not p["byte_identical"]:
            problems.append(
                f"{where}: recovered run is not byte-identical to the "
                "uninterrupted reference"
            )
    return problems


def chaos_verdicts(points: Sequence[Mapping[str, Any]]) -> list[str]:
    """Invariant violations over a sweep (empty == all invariants hold)."""
    problems: list[str] = []
    for p in points:
        if not p["byte_identical"]:
            problems.append(
                f"intensity {p['intensity']}: paired runs were not "
                "byte-identical (determinism broken)"
            )
        if p["n_ber_violations"]:
            problems.append(
                f"intensity {p['intensity']}: {p['n_ber_violations']} "
                "round(s) held a link above its BER-feasible capacity"
            )
    ordered = sorted(points, key=lambda p: p["intensity"])
    for lo, hi in zip(ordered, ordered[1:]):
        if hi["mean_throughput_gbps"] > lo["mean_throughput_gbps"] * MONOTONIC_SLACK:
            problems.append(
                f"throughput rose from {lo['mean_throughput_gbps']:.1f} Gbps "
                f"(intensity {lo['intensity']}) to "
                f"{hi['mean_throughput_gbps']:.1f} Gbps "
                f"(intensity {hi['intensity']}) — degradation is not "
                "monotonic within slack"
            )
    return problems
