"""The central catalog of trace, metric and engine-event names.

Every string a run can emit as an observability name — span and
point-event names (:mod:`repro.obs.trace`), metric series
(:mod:`repro.obs.metrics`) and the event kinds the BVT testbed's
discrete-event engine publishes or its source emits — is declared here
once, with a one-line description.  The exporters read the catalog
(Prometheus ``# HELP`` lines come from it), and ``repro lint`` rule
**T001** checks every name literal in the source against it, so code
and docs cannot drift: adding a name without describing it here is a
lint failure, and ``tests/obs/test_names.py`` fails on a name no module
uses any more.

Convention: dotted lowercase, ``component.thing[.detail]``
(:data:`NAME_PATTERN`).  Components match the package that emits the
name.
"""

from __future__ import annotations

#: the T001 shape every catalogued name satisfies
NAME_PATTERN = r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$"

#: spans — nested regions on the sim/wall trace tracks
SPANS: dict[str, str] = {
    "bvt.reconfigure": "one BVT reconfiguration attempt inside a controller round",
    "controller.round": "one full TE round: telemetry, adapt, solve, reconfigure",
    "sim.network_availability": "whole network-availability scenario replay",
    "sim.reactive": "whole reaction-lag scenario replay",
    "sim.replay": "whole controller trace replay",
    "sim.whatif": "whole ticket-corpus what-if replay",
    "sweep.point": "one sweep grid point: resolve, run, persist",
    "te.solve": "one TE solve inside a round (cache hits included; reused=True when the round reused an earlier round's decision)",
    "testbed.modulation_changes": "one Figure-6b modulation-change ladder",
}

#: point events — instants on the trace timeline
POINTS: dict[str, str] = {
    "bvt.retry": "reconfiguration attempt failed; retry scheduled",
    "fault.activated": "an armed fault fired at one of its seams",
    "journal.checkpoint": "durable checkpoint written at a round commit",
    "journal.recover": "state recovered from checkpoint + WAL replay",
    "state.transition": "one StateStore commit (version chain in attrs)",
    "te.retry": "TE solve failed; retry with backoff scheduled",
}

#: metric series — counters / gauges / histograms / summaries
METRICS: dict[str, str] = {
    "controller.reconfig_downtime_s": "histogram of per-link reconfiguration downtime",
    "controller.reconfig_failures": "reconfigurations that exhausted their retries",
    "controller.rounds": "TE rounds executed",
    "controller.te_fallbacks": "rounds that fell back to the last good TE solution",
    "faults.activated": "fault activations, labelled by kind",
    "journal.checkpoints": "durable checkpoints written",
    "journal.rounds": "round frames committed to the WAL",
    "journal.transitions": "state transitions appended to the WAL",
    "lp.assemble.capacity": "timer: LP capacity-constraint assembly",
    "lp.assemble.conservation": "timer: LP flow-conservation assembly",
    "lp.solve": "timer: HiGHS solve of an assembled LP",
    "parallel.broken_pool": "process pools replaced by the thread fallback",
    "parallel.jobs": "jobs fanned out, labelled fresh/retried",
    "parallel.workers": "workers in the most recent pool",
    "sim.whatif.certified": "ticket what-if and cable-drill scenarios whose value the baseline certified (no solve)",
    "sim.whatif.solved": "ticket what-if and cable-drill LP solves: the baseline plus each scenario no certificate covers",
    "sweep.point_failed": "sweep points that raised",
    "sweep.point_fresh": "sweep points computed (not reused)",
    "synthesis.cache_hit": "telemetry summaries served from the disk cache",
    "synthesis.cache_miss": "telemetry summaries synthesized fresh",
    "synthesis.summaries": "timer: cable summary synthesis",
    "sweep.run": "timer: whole sweep execution",
    "te.batch.throughput": "timer: batched independent scenario solves",
    "te.cache.memo_hit": "TE solves replayed from the memo cache",
    "te.cache.memo_miss": "TE solves that ran the solver",
    "te.cache.replay": "timer: memoized solution replay",
    "te.cache.round_hit": "controller rounds that reused an earlier round's augment/TE/translate decision",
    "te.cache.round_miss": "controller rounds that computed their decision",
    "te.cache.structure_hit": "LP structures reused via rebind",
    "te.cache.structure_miss": "LP structures assembled fresh",
}

#: engine event kinds — what the BVT testbed's engine publishes and its
#: source emits
EVENTS: dict[str, str] = {
    "bvt.reconfigured": "testbed ladder target applied",
    "bvt.request": "testbed ladder target scheduled",
}

#: every declared name -> description (the surface T001 checks)
CATALOG: dict[str, str] = {**SPANS, **POINTS, **METRICS, **EVENTS}


def describe(name: str) -> str | None:
    """The catalogued description of ``name``, if declared."""
    return CATALOG.get(name)
