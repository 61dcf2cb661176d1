"""The experiment registry: named, parameterised, reproducible runs.

Every headline experiment of the reproduction — the ones `cli.py` and
``examples/`` used to hand-roll — is registered here as a pure function
``params -> metrics`` plus the metadata that makes runs content
addressable:

* ``defaults`` — the full parameter set, so a spec only has to name
  what it changes;
* ``render`` — the human-readable text the CLI prints, derived from the
  metrics dict alone (so ``repro sweep show`` can re-render an artifact
  years later without re-running anything).

Every artifact key also hashes the source of this module's static
import closure (:func:`code_fingerprint`), so editing any code an
experiment can reach transparently invalidates stored artifacts, exactly
like the telemetry summary cache.

Metrics dicts contain only JSON scalars, lists and string-keyed dicts.
Execution knobs that must *not* change the artifact key (worker count,
summary-cache bypass) travel separately in :class:`ExecutionContext`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from repro.experiments.spec import ScenarioSpec
from repro.fingerprint import fingerprint_modules, import_closure
from repro.seeds import component_rng

_KEY_SCHEMA = 1


@dataclass(frozen=True)
class ExecutionContext:
    """How to run — never *what* to run (excluded from artifact keys)."""

    workers: int | None = None
    cache: bool | None = None
    #: durable state-journal directory (see :mod:`repro.recovery`);
    #: ``None`` runs unjournaled.  Results are byte-identical either
    #: way — a journaled run that crashes merely becomes *resumable* —
    #: so this too is a how-to-run knob, excluded from artifact keys
    journal_dir: str | None = None


@dataclass(frozen=True)
class Experiment:
    """One registered experiment."""

    name: str
    description: str
    run: Callable[..., dict[str, Any]]
    defaults: tuple[tuple[str, Any], ...]
    render: Callable[[dict[str, Any]], str]

    def defaults_dict(self) -> dict[str, Any]:
        return dict(self.defaults)


_REGISTRY: dict[str, Experiment] = {}


def register(experiment: Experiment) -> Experiment:
    if experiment.name in _REGISTRY:
        raise ValueError(f"experiment {experiment.name!r} already registered")
    _REGISTRY[experiment.name] = experiment
    return experiment


def get_experiment(name: str) -> Experiment:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown experiment {name!r} (known: {known})") from None


def experiment_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def resolve_params(spec: ScenarioSpec) -> dict[str, Any]:
    """Merge the experiment's defaults with the spec's overrides."""
    experiment = get_experiment(spec.experiment)
    defaults = experiment.defaults_dict()
    params = spec.params_dict()
    unknown = set(params) - set(defaults)
    if unknown:
        raise KeyError(
            f"spec {spec.name!r} sets unknown parameter(s) "
            f"{sorted(unknown)} for experiment {spec.experiment!r} "
            f"(valid: {sorted(defaults)})"
        )
    defaults.update(params)
    return defaults


def code_fingerprint() -> str:
    """Hash of every module an experiment can reach (memoised).

    The modules are the static import closure of this registry, lazy
    ``run``-body imports included, minus the result-inert layers
    exempted in ``repro/lint/layers.toml`` (see
    :func:`repro.fingerprint.import_closure`).  All experiments share
    it: their closures meet at the package re-export hubs.
    """
    return fingerprint_modules(import_closure(__name__))


def spec_key(spec: ScenarioSpec) -> str:
    """Content hash of (resolved spec, experiment code fingerprint).

    Two specs that resolve to the same parameters share a key even if
    one spells defaults out and the other relies on them; any edit to
    code the experiments can reach changes every key.
    """
    payload = {
        "schema": _KEY_SCHEMA,
        "experiment": spec.experiment,
        "params": resolve_params(spec),
        "code": code_fingerprint(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


def run_spec(
    spec: ScenarioSpec, context: ExecutionContext | None = None
) -> dict[str, Any]:
    """Execute one spec and return its metrics dict."""
    experiment = get_experiment(spec.experiment)
    params = resolve_params(spec)
    return experiment.run(context if context is not None else ExecutionContext(), **params)


def render_result(experiment_name: str, metrics: Mapping[str, Any]) -> str:
    return get_experiment(experiment_name).render(dict(metrics))


# ---------------------------------------------------------------------------
# The headline experiments
# ---------------------------------------------------------------------------


def _run_study(
    ctx: ExecutionContext, *, cables: int, years: float, seed: int
) -> dict[str, Any]:
    from repro.analysis import figures
    from repro.analysis.margins import margin_report, static_provisioning_frontier
    from repro.telemetry.dataset import BackboneConfig, BackboneDataset

    config = BackboneConfig(n_cables=cables, years=years, seed=seed)
    dataset = BackboneDataset(config)
    summaries = dataset.summaries(workers=ctx.workers, cache=ctx.cache)
    fig2a = figures.fig2a_snr_variation(summaries)
    fig2b = figures.fig2b_feasible_capacity(summaries)
    metrics: dict[str, Any] = {
        "n_links": len(summaries),
        "frac_hdr_below_2db": float(fig2a.frac_hdr_below_2db),
        "mean_range_db": float(fig2a.mean_range_db),
        "frac_at_least_175": float(fig2b.frac_at_least_175),
        "total_gain_tbps": float(fig2b.total_gain_tbps),
    }
    try:
        fig4c = figures.fig4c_failure_snr(summaries)
    except ValueError:  # no failures in a tiny corpus
        metrics["frac_rescuable"] = None
        metrics["n_failures"] = 0
    else:
        metrics["frac_rescuable"] = float(fig4c.frac_at_least_3db)
        metrics["n_failures"] = int(len(fig4c.min_snrs_db))
    margins = margin_report(summaries)
    dynamic = static_provisioning_frontier(summaries, years=years)[-1]
    metrics["mean_margin_db"] = margins.mean_margin_db
    metrics["stranded_tbps"] = margins.total_stranded_tbps
    metrics["dynamic_capacity_gain_ratio"] = float(dynamic.capacity_gain_ratio)
    return metrics


def _render_study(m: Mapping[str, Any]) -> str:
    lines = [
        f"links: {m['n_links']}",
        f"HDR < 2 dB: {100.0 * m['frac_hdr_below_2db']:.1f}% (paper: 83%)",
        f"mean range: {m['mean_range_db']:.1f} dB",
        f">=175 Gbps feasible: {100.0 * m['frac_at_least_175']:.1f}% (paper: 80%)",
        f"aggregate headroom: {m['total_gain_tbps']:.1f} Tbps",
    ]
    if m.get("frac_rescuable") is None:
        lines.append("rescuable failures: no failures in this (small) corpus")
    else:
        lines.append(
            f"rescuable failures: {100.0 * m['frac_rescuable']:.1f}% (paper: ~25%)"
        )
    if "mean_margin_db" in m:  # artifacts stored before the margins
        lines += [
            f"mean provisioned margin: {m['mean_margin_db']:.1f} dB",
            f"stranded by static provisioning: {m['stranded_tbps']:.1f} Tbps",
            f"dynamic capacity vs all-100G: "
            f"{m['dynamic_capacity_gain_ratio']:.2f}x",
        ]
    return "\n".join(lines)


register(
    Experiment(
        name="study",
        description="Section-2 telemetry study (Figures 2a/2b/4c, margins)",
        run=_run_study,
        defaults=(("cables", 14), ("years", 1.0), ("seed", 2017)),
        render=_render_study,
    )
)


def _run_testbed(ctx: ExecutionContext, *, changes: int, seed: int) -> dict[str, Any]:
    from repro.bvt.testbed import Testbed

    report = Testbed(seed=seed).run_figure6_experiment(changes)
    return {
        "n_changes": int(changes),
        "standard_mean_s": float(report.standard_mean_s),
        "efficient_mean_s": float(report.efficient_mean_s),
        "speedup": float(report.speedup),
    }


def _render_testbed(m: Mapping[str, Any]) -> str:
    return "\n".join(
        [
            f"{m['n_changes']} modulation changes per procedure",
            f"standard:  mean {m['standard_mean_s']:.1f} s (paper: 68 s)",
            f"efficient: mean {1000.0 * m['efficient_mean_s']:.1f} ms (paper: 35 ms)",
            f"speedup: {m['speedup']:,.0f}x",
        ]
    )


register(
    Experiment(
        name="testbed",
        description="Figure-6b BVT modulation-change experiment",
        run=_run_testbed,
        defaults=(("changes", 200), ("seed", 68)),
        render=_render_testbed,
    )
)


def _run_tickets(ctx: ExecutionContext, *, seed: int) -> dict[str, Any]:
    from repro.tickets.analysis import opportunity_area, shares_by_cause
    from repro.tickets.generator import TicketGenerator

    corpus = TicketGenerator().generate(component_rng(seed, "tickets"))
    shares = shares_by_cause(corpus)
    area = opportunity_area(corpus)
    return {
        "n_tickets": len(corpus),
        "duration_shares": {c.label: float(f) for c, f in shares.duration.items()},
        "frequency_shares": {c.label: float(f) for c, f in shares.frequency.items()},
        "opportunity_frequency": float(area.opportunity_frequency),
        "opportunity_duration": float(area.opportunity_duration),
    }


def _render_tickets(m: Mapping[str, Any]) -> str:
    from repro.analysis.report import render_shares

    return "\n".join(
        [
            render_shares(
                "share of outage duration (Fig 4a)", dict(m["duration_shares"])
            ),
            render_shares("share of events (Fig 4b)", dict(m["frequency_shares"])),
            f"opportunity area: {100.0 * m['opportunity_frequency']:.1f}% of events",
        ]
    )


register(
    Experiment(
        name="tickets",
        description="Figure-4 root-cause shares of the ticket corpus",
        run=_run_tickets,
        defaults=(("seed", 2017),),
        render=_render_tickets,
    )
)


def _run_throughput(
    ctx: ExecutionContext,
    *,
    offered_gbps: float,
    snr_db: float,
    scales: tuple[float, ...],
    seed: int,
) -> dict[str, Any]:
    from repro.net.demands import gravity_demands
    from repro.net.topologies import us_backbone_like
    from repro.sim.throughput import simulate_throughput_gains

    topology = us_backbone_like()
    demands = gravity_demands(
        topology, offered_gbps, component_rng(seed, "throughput.demands")
    )
    snrs = {l.link_id: snr_db for l in topology.real_links()}
    points = simulate_throughput_gains(
        topology, demands, snrs, demand_scales=tuple(scales)
    )
    return {
        "points": [
            {
                "scale": float(p.demand_scale),
                "static_gbps": float(p.static_gbps),
                "dynamic_gbps": float(p.dynamic_gbps),
                "gain_ratio": float(p.gain_ratio),
            }
            for p in points
        ],
        "max_gain_ratio": max(float(p.gain_ratio) for p in points),
    }


def _render_throughput(m: Mapping[str, Any]) -> str:
    from repro.analysis.report import render_series

    rows = [
        (p["scale"], p["static_gbps"], p["dynamic_gbps"], p["gain_ratio"])
        for p in m["points"]
    ]
    return render_series(
        "static vs dynamic TE throughput",
        rows,
        header=["scale", "static", "dynamic", "gain x"],
    )


register(
    Experiment(
        name="throughput",
        description="static vs dynamic TE throughput sweep",
        run=_run_throughput,
        defaults=(
            ("offered_gbps", 6000.0),
            ("snr_db", 16.0),
            ("scales", (0.5, 1.0, 2.0)),
            ("seed", 1),
        ),
        render=_render_throughput,
    )
)


def _run_availability(
    ctx: ExecutionContext, *, cables: int, years: float, seed: int
) -> dict[str, Any]:
    from repro.sim.availability import availability_report
    from repro.telemetry.dataset import BackboneConfig, BackboneDataset

    dataset = BackboneDataset(
        BackboneConfig(n_cables=cables, years=years, seed=seed)
    )
    report = availability_report(dataset.iter_traces(workers=ctx.workers))
    return {
        "n_links": int(report.n_links),
        "n_binary_failures": int(report.n_binary_failures),
        "n_avoided": int(report.n_avoided),
        "avoided_fraction": float(report.avoided_fraction),
        "total_downtime_saved_h": float(report.total_downtime_saved_h),
        "mean_binary_availability": float(report.mean_binary_availability),
        "mean_dynamic_availability": float(report.mean_dynamic_availability),
    }


def _render_availability(m: Mapping[str, Any]) -> str:
    return "\n".join(
        [
            f"links: {m['n_links']}",
            f"binary failures: {m['n_binary_failures']}",
            f"avoided (flaps): {m['n_avoided']} "
            f"({100.0 * m['avoided_fraction']:.1f}%; paper: ~25%)",
            f"downtime saved: {m['total_downtime_saved_h']:.0f} h",
        ]
    )


register(
    Experiment(
        name="availability",
        description="binary failures vs dynamic capacity flaps",
        run=_run_availability,
        defaults=(("cables", 10), ("years", 1.0), ("seed", 42)),
        render=_render_availability,
    )
)


def _run_theorem(
    ctx: ExecutionContext, *, nodes: int, penalty: float, seed: int
) -> dict[str, Any]:
    from repro.core.penalties import ConstantPenalty
    from repro.core.theorem import check_theorem1
    from repro.net.topologies import random_wan

    rng = component_rng(seed, "theorem.wan")
    topology = random_wan(nodes, rng)
    for link in list(topology.links):
        if rng.random() < 0.5:
            topology.replace_link(link.link_id, headroom_gbps=100.0)
    all_nodes = topology.nodes
    report = check_theorem1(
        topology,
        all_nodes[0],
        all_nodes[-1],
        penalty_policy=ConstantPenalty(penalty),
    )
    return {
        "maxflow_on_full_g": float(report.maxflow_on_full_g),
        "mcmf_on_augmented": float(report.mcmf_on_augmented),
        "maxflow_on_static_g": float(report.maxflow_on_static_g),
        "holds": bool(report.holds),
    }


def _render_theorem(m: Mapping[str, Any]) -> str:
    return "\n".join(
        [
            f"max-flow(G at full capacity) = {m['maxflow_on_full_g']:.1f} Gbps",
            f"min-cost max-flow(G')        = {m['mcmf_on_augmented']:.1f} Gbps",
            f"static max-flow(G)           = {m['maxflow_on_static_g']:.1f} Gbps",
            f"Theorem 1 holds: {m['holds']}",
        ]
    )


register(
    Experiment(
        name="theorem",
        description="Theorem-1 equivalence check on a random WAN",
        run=_run_theorem,
        defaults=(("nodes", 8), ("penalty", 100.0), ("seed", 0)),
        render=_render_theorem,
    )
)


def _run_whatif(
    ctx: ExecutionContext,
    *,
    tickets: int,
    months: float,
    offered_gbps: float,
    fallback_gbps: float,
    seed: int,
) -> dict[str, Any]:
    """Ticket-corpus what-if replay on the Figure-7 plant."""
    from dataclasses import replace

    from repro.net.demands import gravity_demands
    from repro.net.srlg import duplex_srlgs
    from repro.net.topologies import figure7_topology
    from repro.sim.whatif import replay_tickets
    from repro.tickets.generator import TicketConfig, TicketGenerator

    topology = figure7_topology()
    srlgs = duplex_srlgs(topology)
    cables = srlgs.cables()
    corpus = TicketGenerator(
        TicketConfig(n_events=tickets, months=months)
    ).generate(component_rng(seed, "whatif.tickets"))
    # the generator names synthetic elements (cable000...); fold them
    # deterministically onto the plant's real cables so every ticket
    # lands on an SRLG the topology knows
    corpus = [
        replace(t, element=cables[int(t.element[5:]) % len(cables)])
        for t in corpus
    ]
    demands = gravity_demands(
        topology, offered_gbps, component_rng(seed, "whatif.demands")
    )
    report = replay_tickets(
        topology,
        demands,
        corpus,
        srlgs,
        fallback_capacity_gbps=fallback_gbps,
        workers=ctx.workers,
    )
    return {
        "n_tickets": int(report.n_tickets),
        "n_impactful": int(report.n_impactful),
        "n_fully_mitigated": int(report.n_fully_mitigated),
        "total_rescued_gbps_hours": float(report.total_rescued_gbps_hours),
    }


def _render_whatif(m: Mapping[str, Any]) -> str:
    frac = (
        100.0 * m["n_fully_mitigated"] / m["n_impactful"]
        if m["n_impactful"]
        else 0.0
    )
    return "\n".join(
        [
            f"tickets replayed: {m['n_tickets']}",
            f"impactful under the binary rule: {m['n_impactful']}",
            f"fully mitigated by dynamic capacity: "
            f"{m['n_fully_mitigated']} ({frac:.0f}% of impactful)",
            f"traffic rescued: {m['total_rescued_gbps_hours']:.1f} Gbps-h",
        ]
    )


register(
    Experiment(
        name="whatif",
        description="ticket-corpus what-if replay: binary vs dynamic verdicts",
        run=_run_whatif,
        defaults=(
            ("tickets", 40),
            ("months", 7.0),
            ("offered_gbps", 300.0),
            ("fallback_gbps", 50.0),
            ("seed", 2017),
        ),
        render=_render_whatif,
    )
)


#: tunnels per demand for the path-based LP
_PATH_LP_KS = (1, 2, 4, 8)


def _run_allocators(
    ctx: ExecutionContext, *, offered_gbps: float, sparsity: float, seed: int
) -> dict[str, Any]:
    """Section 4: unmodified TE allocators on the augmented backbone G'."""
    from repro.core.augmentation import augment_topology
    from repro.core.gadgets import apply_unsplittable_gadget
    from repro.core.penalties import ConstantPenalty, TrafficDisruptionPenalty
    from repro.net.demands import gravity_demands
    from repro.net.paths import k_shortest_paths, path_capacity
    from repro.net.topologies import us_backbone_like
    from repro.net.topology import Topology
    from repro.te.b4 import b4_allocate
    from repro.te.cspf import cspf_allocate
    from repro.te.lp import MultiCommodityLp
    from repro.te.maxflow import max_flow
    from repro.te.pathlp import PathBasedLp
    from repro.te.swan import swan_allocate

    topology = us_backbone_like()
    for link in topology.real_links():
        topology.replace_link(link.link_id, headroom_gbps=75.0)
    augmented = augment_topology(
        topology, penalty_policy=TrafficDisruptionPenalty()
    ).topology
    # a plain generator of ``seed``, not a component stream: the §4
    # ablation benches pin their demand matrices by this seed
    demands = gravity_demands(
        topology, offered_gbps, np.random.default_rng(seed), sparsity=sparsity
    )
    edge = MultiCommodityLp(augmented, demands).max_throughput()
    solutions = (
        ("lp-optimal", edge.solution),
        ("swan", swan_allocate(augmented, demands)),
        ("b4", b4_allocate(augmented, demands)),
        ("cspf", cspf_allocate(augmented, demands)),
    )

    # Figure 8: one upgradable 100 Gbps link behind the unsplittable gadget
    square = Topology("fig8")
    square.add_link("A", "B", 100.0, headroom_gbps=100.0, link_id="ab")
    gadget = apply_unsplittable_gadget(
        square, penalty_policy=ConstantPenalty(100.0)
    ).topology
    return {
        "n_demands": len(demands),
        "allocators": [
            {
                "name": name,
                "gbps": float(solution.total_allocated_gbps),
                "max_utilization": float(solution.max_utilization),
                "valid": bool(solution.is_valid()),
            }
            for name, solution in solutions
        ],
        "edge_lp_gbps": float(edge.objective_value),
        "path_lp": [
            {
                "k": k,
                "gbps": float(
                    PathBasedLp(augmented, demands, k_paths=k)
                    .max_throughput()
                    .objective_value
                ),
            }
            for k in _PATH_LP_KS
        ],
        "gadget_single_path_gbps": max(
            float(path_capacity(p)) for p in k_shortest_paths(gadget, "A", "B", 3)
        ),
        "gadget_total_gbps": float(max_flow(gadget, "A", "B").value_gbps),
    }


def _render_allocators(m: Mapping[str, Any]) -> str:
    from repro.analysis.report import render_series

    lp_gbps = m["allocators"][0]["gbps"]
    allocators = render_series(
        f"TE allocators on the same augmented backbone ({m['n_demands']} demands)",
        [
            (a["name"], a["gbps"], a["gbps"] / lp_gbps, a["max_utilization"])
            for a in m["allocators"]
        ],
        header=["allocator", "Gbps", "vs LP", "max util"],
    )
    exact = m["edge_lp_gbps"]
    formulations = render_series(
        "path-based LP vs the exact edge LP",
        [("edge (exact)", exact, 1.0)]
        + [(f"path k={p['k']}", p["gbps"], p["gbps"] / exact) for p in m["path_lp"]],
        header=["formulation", "Gbps", "vs exact"],
    )
    return "\n".join(
        [
            allocators,
            f"every allocator valid on G' unmodified: "
            f"{all(a['valid'] for a in m['allocators'])}",
            formulations,
            f"Figure-8 gadget: best single path {m['gadget_single_path_gbps']:.0f} Gbps, "
            f"total {m['gadget_total_gbps']:.0f} Gbps (parallel links: 100)",
        ]
    )


register(
    Experiment(
        name="allocators",
        description="Section-4 TE allocators, path LP and Figure-8 gadget on G'",
        run=_run_allocators,
        defaults=(("offered_gbps", 8000.0), ("sparsity", 0.5), ("seed", 9)),
        render=_render_allocators,
    )
)


def _run_drill(
    ctx: ExecutionContext, *, offered_gbps: float, fallback_gbps: float, seed: int
) -> dict[str, Any]:
    """Cable drill on Abilene: each cable failed (binary) vs flapped."""
    from repro.net.demands import gravity_demands
    from repro.net.srlg import duplex_srlgs
    from repro.net.topologies import abilene
    from repro.sim.network_availability import cable_event_impacts

    topology = abilene()
    srlgs = duplex_srlgs(topology)
    demands = gravity_demands(
        topology, offered_gbps, component_rng(seed, "drill.demands")
    )
    report = cable_event_impacts(
        topology,
        demands,
        srlgs,
        fallback_capacity_gbps=fallback_gbps,
        workers=ctx.workers,
    )
    return {
        "n_links": len(topology.real_links()),
        "n_cables": len(srlgs),
        "n_demands": len(demands),
        "baseline_gbps": float(report.impacts[0].baseline_gbps),
        "mean_rescued_gbps": float(report.mean_rescued_gbps),
        "cables_fully_survivable": int(report.cables_fully_survivable),
        "worst_binary_loss_cable": report.worst_binary_loss.cable,
        "impacts": [
            {
                "cable": i.cable,
                "binary_gbps": float(i.binary_gbps),
                "dynamic_gbps": float(i.dynamic_gbps),
            }
            for i in report.impacts
        ],
    }


def _render_drill(m: Mapping[str, Any]) -> str:
    baseline = m["baseline_gbps"]
    cables = [i["cable"].removeprefix("fiber:") for i in m["impacts"]]
    width = max(len(c) for c in cables)
    rows = [
        f"  {cable:<{width}}  {baseline - i['binary_gbps']:>8.1f}  "
        f"{baseline - i['dynamic_gbps']:>8.1f}  "
        f"{i['dynamic_gbps'] - i['binary_gbps']:>8.1f}"
        for cable, i in zip(cables, m["impacts"])
    ]
    return "\n".join(
        [
            f"{m['n_links']} links, {m['n_cables']} cables, "
            f"{m['n_demands']} demands; baseline {baseline:.1f} Gbps",
            "throughput lost per cable event (Gbps)",
            f"  {'cable':<{width}}  {'binary':>8}  {'dynamic':>8}  {'rescued':>8}",
            *rows,
            f"worst binary loss: {m['worst_binary_loss_cable']}",
            f"cables whose loss costs nothing: {m['cables_fully_survivable']}",
            f"mean rescued by flapping instead of failing: "
            f"{m['mean_rescued_gbps']:.1f} Gbps",
        ]
    )


register(
    Experiment(
        name="drill",
        description="cable drill: each cable failed vs flapped, network-wide",
        run=_run_drill,
        defaults=(("offered_gbps", 2500.0), ("fallback_gbps", 50.0), ("seed", 0)),
        render=_render_drill,
    )
)


_POLICIES = ("run", "walk", "crawl")
_MODES = ("scheduled", "reactive", "proactive")


def _run_reactive(
    ctx: ExecutionContext,
    *,
    days: float,
    mode: str,
    policy: str,
    seed: int,
    te_interval_h: float,
    baseline_snr_db: float,
    offered_gbps: float,
    dip_db: float,
    dip_hours: float,
) -> dict[str, Any]:
    """Reaction-lag replay on a 3-node line with one mid-horizon dip."""
    from repro.core.controller import DynamicCapacityController
    from repro.core.policies import crawl_policy, run_policy, walk_policy
    from repro.net.demands import gravity_demands
    from repro.net.topologies import line_topology
    from repro.optics.impairments import AmplifierDegradation
    from repro.sim.reactive import reactive_replay
    from repro.telemetry.timebase import Timebase
    from repro.telemetry.traces import NoiseModel, synthesize_cable_traces

    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r} (valid: {_MODES})")
    if policy not in _POLICIES:
        raise ValueError(f"unknown policy {policy!r} (valid: {_POLICIES})")
    topology = line_topology(3)
    timebase = Timebase.from_duration(days=days)
    link_ids = [l.link_id for l in topology.real_links()]
    events = []
    if dip_db > 0 and dip_hours > 0:
        events.append(
            AmplifierDegradation(
                0.4 * timebase.duration_s, dip_hours * 3600.0, dip_db
            )
        )
    traces = synthesize_cable_traces(
        "sweep-cable",
        np.full(len(link_ids), baseline_snr_db),
        timebase,
        events,
        {},
        NoiseModel(sigma_db=0.08, wander_amplitude_db=0.0),
        component_rng(seed, "reactive.cable"),
    )
    demands = gravity_demands(
        topology, offered_gbps, component_rng(seed, "reactive.demands")
    )
    policy_fn = {"run": run_policy, "walk": walk_policy, "crawl": crawl_policy}[policy]
    controller = DynamicCapacityController(topology, policy=policy_fn(), seed=seed)
    result = reactive_replay(
        controller,
        dict(zip(link_ids, traces)),
        demands,
        te_interval_s=te_interval_h * 3600.0,
        mode=mode,
        journal_dir=ctx.journal_dir,
        resume="auto",
    )
    return {
        "mode": mode,
        "policy": policy,
        "n_scheduled_rounds": int(result.n_scheduled_rounds),
        "n_emergency_rounds": int(result.n_emergency_rounds),
        "lost_gbps_hours": float(result.lost_gbps_hours),
        "mean_throughput_gbps": float(result.mean_throughput_gbps),
        "total_downtime_s": float(result.total_downtime_s),
    }


def _render_reactive(m: Mapping[str, Any]) -> str:
    return "\n".join(
        [
            f"mode={m['mode']} policy={m['policy']}",
            f"rounds: {m['n_scheduled_rounds']} scheduled "
            f"+ {m['n_emergency_rounds']} emergency",
            f"traffic lost to reaction lag: {m['lost_gbps_hours']:.1f} Gbps-h",
            f"mean throughput: {m['mean_throughput_gbps']:.0f} Gbps",
        ]
    )


def _run_chaos(
    ctx: ExecutionContext,
    *,
    days: float,
    intensity: float,
    policy: str,
    seed: int,
    te_interval_h: float,
    retries: int,
) -> dict[str, Any]:
    """One chaos point: paired fault-injected replays plus invariants."""
    from repro.faults.chaos import run_chaos_point

    return run_chaos_point(
        days=days,
        intensity=intensity,
        policy=policy,
        seed=seed,
        te_interval_h=te_interval_h,
        retries=retries,
    )


def _render_chaos(m: Mapping[str, Any]) -> str:
    counts = ", ".join(
        f"{k}={v}" for k, v in sorted(m.get("fault_counts", {}).items())
    )
    return "\n".join(
        [
            f"intensity={m['intensity']} policy={m['policy']} "
            f"rounds={m['n_rounds']}",
            f"mean throughput: {m['mean_throughput_gbps']:.1f} Gbps "
            f"(fault loss {m['fault_capacity_loss_gbps']:.1f} Gbps)",
            f"retries: {m['n_retries']} "
            f"(backoff {m['retry_backoff_s']:.1f} s); "
            f"TE fallbacks: {m['n_te_fallbacks']}; "
            f"reconfig failures: {m['n_reconfig_failures']}; "
            f"stale link-rounds: {m['n_stale_link_rounds']}",
            f"faults applied: {counts or 'none'}",
            f"byte-identical paired runs: {m['byte_identical']}; "
            f"BER violations: {m['n_ber_violations']}",
        ]
    )


register(
    Experiment(
        name="chaos",
        description="fault-injection chaos point: degradation + invariants",
        run=_run_chaos,
        defaults=(
            ("days", 1.0),
            ("intensity", 1.0),
            ("policy", "run"),
            ("seed", 7),
            ("te_interval_h", 4.0),
            ("retries", 3),
        ),
        render=_render_chaos,
    )
)


register(
    Experiment(
        name="reactive",
        description="reaction-lag replay: scheduled vs reactive vs proactive",
        run=_run_reactive,
        defaults=(
            ("days", 2.0),
            ("mode", "reactive"),
            ("policy", "run"),
            ("seed", 1),
            ("te_interval_h", 4.0),
            ("baseline_snr_db", 15.0),
            ("offered_gbps", 400.0),
            ("dip_db", 10.0),
            ("dip_hours", 6.0),
        ),
        render=_render_reactive,
    )
)
