"""Per-rule coverage over the fixture snippets (D001-D004, T001)."""

import ast
from pathlib import Path

from repro.lint.rules import RuleConfig, check_file

FIXTURES = Path(__file__).parent / "fixtures"


def run_fixture(name: str, module: str, config: RuleConfig | None = None):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    tree = ast.parse(source)
    return check_file(module, tree, config or RuleConfig())


class TestD001WallClock:
    def test_flags_every_wall_clock_style(self):
        findings = run_fixture("wall_clock.py", "repro.sim.fixture")
        assert [(f.code, f.line) for f in findings] == [
            ("D001", 9),
            ("D001", 10),
            ("D001", 11),
        ]

    def test_silent_inside_observability_modules(self):
        assert run_fixture("wall_clock.py", "repro.obs.trace") == []
        assert run_fixture("wall_clock.py", "repro.obs.metrics") == []


class TestD002Randomness:
    def test_flags_global_draws_not_generators(self):
        findings = run_fixture("randomness.py", "repro.sim.fixture")
        assert [(f.code, f.line) for f in findings] == [
            ("D002", 10),
            ("D002", 11),
        ]

    def test_silent_inside_seeds(self):
        assert run_fixture("randomness.py", "repro.seeds") == []


class TestD003SetOrder:
    def test_flags_unsorted_iteration_only(self):
        findings = run_fixture("set_order.py", "repro.state.fixture")
        assert [(f.code, f.line) for f in findings] == [
            ("D003", 7),
            ("D003", 11),
            ("D003", 15),
        ]

    def test_scoped_to_order_sensitive_packages(self):
        assert run_fixture("set_order.py", "repro.analysis.fixture") == []


class TestD004CanonicalJson:
    def test_flags_dumps_without_sort_keys(self):
        findings = run_fixture("json_sort.py", "repro.fixture.serialize")
        assert [(f.code, f.line) for f in findings] == [("D004", 8)]

    def test_scoped_to_serialization_modules(self):
        assert run_fixture("json_sort.py", "repro.fixture.misc") == []


class TestT001Names:
    CONFIG = RuleConfig(catalog=frozenset({"demo.region"}))

    def test_flags_shape_and_undeclared(self):
        findings = run_fixture("names.py", "repro.sim.fixture", self.CONFIG)
        assert [(f.code, f.line) for f in findings] == [
            ("T001", 14),
            ("T001", 15),
        ]
        assert "not dotted lowercase" in findings[0].message
        assert "not declared" in findings[1].message

    def test_rule_can_be_disabled(self):
        config = RuleConfig(
            catalog=frozenset({"demo.region"}),
            enabled=frozenset({"D001"}),
        )
        assert run_fixture("names.py", "repro.sim.fixture", config) == []


class TestFindingOrdering:
    def test_findings_sorted_and_stable(self):
        findings = run_fixture("set_order.py", "repro.state.fixture")
        assert findings == sorted(findings)
        again = run_fixture("set_order.py", "repro.state.fixture")
        assert findings == again
