"""Tests for the experiment registry and content-addressed spec keys."""

import numpy as np
import pytest

from repro.experiments import registry as registry_mod
from repro.experiments.registry import (
    ExecutionContext,
    experiment_names,
    get_experiment,
    render_result,
    resolve_params,
    run_spec,
    spec_key,
)
from repro.experiments.spec import ScenarioSpec


class TestRegistry:
    def test_headline_experiments_registered(self):
        names = experiment_names()
        for name in (
            "study", "testbed", "tickets", "throughput",
            "availability", "theorem", "reactive", "drill", "allocators",
        ):
            assert name in names

    def test_unknown_experiment_lists_known(self):
        with pytest.raises(KeyError, match="known:"):
            get_experiment("frobnicate")

    def test_resolve_params_merges_defaults(self):
        spec = ScenarioSpec.create("s", "theorem", nodes=5)
        params = resolve_params(spec)
        assert params["nodes"] == 5
        assert params["penalty"] == 100.0  # default preserved

    def test_resolve_params_rejects_unknown(self):
        spec = ScenarioSpec.create("s", "theorem", frobs=3)
        with pytest.raises(KeyError, match="unknown parameter"):
            resolve_params(spec)

    @pytest.mark.parametrize(
        "experiment, param", [("reactive", "mode"), ("reactive", "policy"),
                              ("chaos", "policy")],
    )
    def test_resolve_params_rejects_a_value_outside_choices(
        self, experiment, param
    ):
        spec = ScenarioSpec.create("s", experiment, **{param: "bogus"})
        with pytest.raises(ValueError, match=f"unknown {param} 'bogus'"):
            resolve_params(spec)

    def test_policy_choices_are_the_policy_map(self):
        from repro.core.policies import POLICIES

        for name in ("reactive", "chaos"):
            choices = dict(get_experiment(name).choices)
            assert choices["policy"] == tuple(POLICIES)

    def test_mode_choices_are_the_reaction_modes(self):
        from repro.core.policies import REACTION_MODES

        assert dict(get_experiment("reactive").choices)["mode"] is REACTION_MODES

    def test_journaled_names_the_experiments_that_read_the_journal_dir(self):
        import inspect

        reads = {
            name for name in experiment_names()
            if "journal_dir" in inspect.getsource(get_experiment(name).run)
        }
        assert reads == set(registry_mod.JOURNALED)


class TestSpecKey:
    def test_defaults_spelled_out_share_key(self):
        implicit = ScenarioSpec.create("a", "theorem")
        explicit = ScenarioSpec.create(
            "b", "theorem", nodes=8, penalty=100.0, seed=0
        )
        assert spec_key(implicit) == spec_key(explicit)

    def test_param_change_changes_key(self):
        a = ScenarioSpec.create("s", "theorem", seed=0)
        b = ScenarioSpec.create("s", "theorem", seed=1)
        assert spec_key(a) != spec_key(b)

    def test_key_stable_across_calls(self):
        spec = ScenarioSpec.create("s", "theorem")
        assert spec_key(spec) == spec_key(spec)

    def test_code_fingerprint_in_key(self, monkeypatch):
        spec = ScenarioSpec.create("s", "theorem")
        before = spec_key(spec)
        monkeypatch.setattr(
            registry_mod, "fingerprint_modules", lambda modules: "different"
        )
        assert spec_key(spec) != before

    def test_execution_context_not_in_key(self):
        # workers/cache are how-to-run, not what-to-run
        spec = ScenarioSpec.create("s", "theorem")
        key = spec_key(spec)
        run_spec(spec, ExecutionContext(workers=3, cache=False))
        assert spec_key(spec) == key


class TestRunSpec:
    def test_theorem_runs_and_renders(self):
        spec = ScenarioSpec.create("s", "theorem", nodes=5, seed=3)
        result = run_spec(spec)
        assert result["holds"] is True
        text = render_result("theorem", result)
        assert "Theorem 1 holds: True" in text

    def test_reactive_runs(self):
        spec = ScenarioSpec.create("s", "reactive", days=0.5, seed=1)
        result = run_spec(spec)
        assert result["policy"] == "run"
        assert result["n_scheduled_rounds"] >= 1
        assert "rounds:" in render_result("reactive", result)

    def test_reactive_rejects_bad_policy(self):
        spec = ScenarioSpec.create("s", "reactive", policy="sprint")
        with pytest.raises(ValueError, match="unknown policy"):
            run_spec(spec)

    def test_run_is_deterministic(self):
        spec = ScenarioSpec.create("s", "reactive", days=0.5, seed=5)
        assert run_spec(spec) == run_spec(spec)

    def test_tickets_uses_component_seed_derivation(self):
        from repro.seeds import component_rng
        from repro.tickets.generator import TicketGenerator

        spec = ScenarioSpec.create("s", "tickets", seed=2017)
        result = run_spec(spec)
        corpus = TicketGenerator().generate(component_rng(2017, "tickets"))
        assert result["n_tickets"] == len(corpus)
        # same derivation => identical corpus => identical opportunity area
        from repro.tickets.analysis import opportunity_area

        area = opportunity_area(corpus)
        assert result["opportunity_frequency"] == float(
            area.opportunity_frequency
        )

    def test_metrics_are_json_clean(self):
        import json

        spec = ScenarioSpec.create("s", "reactive", days=0.5)
        payload = json.dumps(run_spec(spec))
        assert json.loads(payload)["mode"] == "reactive"


class TestRoutedExperiments:
    """The §4 allocators, the cable drill and the study's margins."""

    def test_drill_equals_a_direct_drill(self):
        from repro.net.demands import gravity_demands
        from repro.net.srlg import duplex_srlgs
        from repro.net.topologies import abilene
        from repro.seeds import component_rng
        from repro.sim.network_availability import cable_event_impacts

        spec = ScenarioSpec.create(
            "d", "drill", offered_gbps=1500.0, fallback_gbps=25.0, seed=3
        )
        result = run_spec(spec)
        topology = abilene()
        demands = gravity_demands(
            topology, 1500.0, component_rng(3, "drill.demands")
        )
        report = cable_event_impacts(
            topology, demands, duplex_srlgs(topology), fallback_capacity_gbps=25.0
        )
        assert (result["n_links"], result["n_cables"], result["n_demands"]) == (
            28, 14, 110,
        )
        assert result["baseline_gbps"] == report.impacts[0].baseline_gbps
        assert result["impacts"] == [
            {"cable": i.cable, "binary_gbps": i.binary_gbps, "dynamic_gbps": i.dynamic_gbps}
            for i in report.impacts
        ]
        assert result["mean_rescued_gbps"] == report.mean_rescued_gbps
        assert result["cables_fully_survivable"] == report.cables_fully_survivable
        assert result["worst_binary_loss_cable"] == report.worst_binary_loss.cable
        assert "worst binary loss: " in render_result("drill", result)

    def test_drill_workers_come_from_the_context(self):
        spec = ScenarioSpec.create("d", "drill", offered_gbps=1500.0)
        assert run_spec(spec, ExecutionContext(workers=2)) == run_spec(spec)

    def test_allocators_run_unmodified_on_g_prime(self):
        from repro.core.augmentation import augment_topology
        from repro.core.penalties import TrafficDisruptionPenalty
        from repro.net.demands import gravity_demands
        from repro.net.topologies import us_backbone_like
        from repro.te.b4 import b4_allocate

        spec = ScenarioSpec.create(
            "a", "allocators", offered_gbps=2000.0, sparsity=0.95, seed=9
        )
        result = run_spec(spec)
        allocators = result["allocators"]
        assert [a["name"] for a in allocators] == ["lp-optimal", "swan", "b4", "cspf"]
        lp_gbps = allocators[0]["gbps"]
        assert result["edge_lp_gbps"] == pytest.approx(lp_gbps)
        for a in allocators:
            assert a["valid"], a["name"]
            assert a["gbps"] <= lp_gbps + 1e-3
        paths = [p["gbps"] for p in result["path_lp"]]
        assert [p["k"] for p in result["path_lp"]] == [1, 2, 4, 8]
        assert paths == sorted(paths)
        assert paths[-1] <= result["edge_lp_gbps"] + 1e-3
        assert result["gadget_single_path_gbps"] == 200.0
        assert result["gadget_total_gbps"] == 200.0

        # the b4 row is a plain b4_allocate on the same augmented backbone
        topology = us_backbone_like()
        for link in topology.real_links():
            topology.replace_link(link.link_id, headroom_gbps=75.0)
        augmented = augment_topology(
            topology, penalty_policy=TrafficDisruptionPenalty()
        ).topology
        demands = gravity_demands(
            topology, 2000.0, np.random.default_rng(9), sparsity=0.95
        )
        assert result["n_demands"] == len(demands)
        direct = b4_allocate(augmented, demands).total_allocated_gbps
        assert allocators[2]["gbps"] == direct
        assert "Figure-8 gadget" in render_result("allocators", result)

    def test_study_reports_the_margins_of_its_summaries(self):
        from repro.analysis.margins import margin_report, static_provisioning_frontier
        from repro.telemetry.dataset import BackboneConfig, BackboneDataset

        spec = ScenarioSpec.create("s", "study", cables=2, years=0.1, seed=5)
        result = run_spec(spec)
        summaries = BackboneDataset(
            BackboneConfig(n_cables=2, years=0.1, seed=5)
        ).summaries()
        report = margin_report(summaries)
        dynamic = static_provisioning_frontier(summaries, years=0.1)[-1]
        assert result["mean_margin_db"] == report.mean_margin_db
        assert result["stranded_tbps"] == report.total_stranded_tbps
        assert result["dynamic_capacity_gain_ratio"] == dynamic.capacity_gain_ratio
        assert "stranded by static provisioning" in render_result("study", result)

    def test_study_renders_an_artifact_stored_before_the_margins(self):
        spec = ScenarioSpec.create("s", "study", cables=2, years=0.1, seed=5)
        result = run_spec(spec)
        for key in ("mean_margin_db", "stranded_tbps", "dynamic_capacity_gain_ratio"):
            del result[key]
        assert "margin" not in render_result("study", result)


class TestFingerprintCompleteness:
    """The experiment fingerprint covers the registry's whole import closure."""

    def test_every_declared_module_resolves(self):
        from pathlib import Path

        from repro.fingerprint import import_closure
        from repro.lint.imports import build_import_graph

        modules = import_closure(registry_mod.__name__)
        src_repro = Path(registry_mod.__file__).resolve().parents[1]
        assert set(modules) <= set(build_import_graph(src_repro).files)
        # fingerprint_modules raises on any module it cannot load
        assert registry_mod.code_fingerprint()

    def test_registry_is_f001_clean(self):
        # what lint rule F001 used to police now holds by construction
        from repro.fingerprint import import_closure
        from repro.lint.layers import load_contract

        modules = import_closure(registry_mod.__name__)
        contract = load_contract()
        assert [m for m in modules if contract.is_exempt(m)] == []
        # imported only inside _run_whatif's body
        assert "repro.sim.whatif" in modules

    def test_all_experiments_share_one_closed_set(self):
        from pathlib import Path

        from repro.fingerprint import import_closure
        from repro.lint.imports import build_import_graph
        from repro.lint.layers import load_contract

        modules = import_closure(registry_mod.__name__)
        assert len(modules) == len(set(modules))  # no duplicates
        contract = load_contract()
        graph = build_import_graph(Path(registry_mod.__file__).resolve().parents[1])
        for module in modules:
            for edge in graph.imports_of(module):
                assert edge.imported in modules or contract.is_exempt(
                    edge.imported
                ), (module, edge.imported)
        for name in experiment_names():
            assert get_experiment(name).run.__module__ in modules

    def test_every_parent_package_is_in_the_closure(self):
        # importing repro.te.lp runs repro/__init__.py and
        # repro/te/__init__.py first, so their bytes count too
        from repro.fingerprint import import_closure

        modules = set(import_closure(registry_mod.__name__))
        for module in modules:
            parts = module.split(".")
            for k in range(1, len(parts)):
                assert ".".join(parts[:k]) in modules, module
