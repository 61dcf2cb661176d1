"""Layering rules over synthetic package trees and the real contract."""

from pathlib import Path

import pytest

from repro.lint.imports import build_import_graph
from repro.lint.layers import (
    DEFAULT_CONTRACT,
    LayerContract,
    LayerRule,
    _parse_toml_minimal,
    check_layers,
    check_reachability,
    load_contract,
)
from repro.lint.runner import lint_paths


def make_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root / "pkg"


CONTRACT = LayerContract(
    rules=(
        LayerRule(
            code="L001",
            title="state must not import the simulators",
            scope=("pkg.state",),
            forbid=("pkg.sim",),
        ),
    ),
    fingerprint_exempt=(),
)


class TestCheckLayers:
    def test_transitive_violation_with_chain(self, tmp_path):
        pkg = make_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/state/__init__.py": "",
                "pkg/state/model.py": "from pkg.util import helper\n",
                "pkg/util.py": "from pkg.sim import run\n\nhelper = run\n",
                "pkg/sim.py": "def run():\n    return None\n",
            },
        )
        graph = build_import_graph(pkg)
        relpath = {m: p.name for m, p in graph.files.items()}
        findings = check_layers(graph, CONTRACT, relpath)
        assert [f.code for f in findings] == ["L001"]
        assert findings[0].line == 1  # the direct import starting the chain
        assert (
            "via pkg.state.model -> pkg.util -> pkg.sim"
            in findings[0].message
        )

    def test_lazy_function_body_import_still_counts(self, tmp_path):
        pkg = make_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/state/__init__.py": "",
                "pkg/state/model.py": (
                    "def load():\n    from pkg import sim\n    return sim\n"
                ),
                "pkg/sim.py": "",
            },
        )
        graph = build_import_graph(pkg)
        findings = check_layers(graph, CONTRACT, {})
        assert [f.code for f in findings] == ["L001"]
        assert findings[0].line == 2

    def test_package_init_counts_for_its_children(self, tmp_path):
        # importing pkg.state.model runs pkg/state/__init__.py first, so
        # what the package imports is reached through every child
        pkg = make_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/state/__init__.py": "\n\nfrom pkg.sim import run\n",
                # naming the parent on a later line does not move the edge
                "pkg/state/model.py": "VALUE = 1\n\nimport pkg.state\n",
                "pkg/sim.py": "def run():\n    return None\n",
            },
        )
        graph = build_import_graph(pkg)
        findings = check_layers(graph, CONTRACT, {})
        by_module = {f.path: f for f in findings}
        assert sorted(by_module) == ["pkg.state", "pkg.state.model"]
        child = by_module["pkg.state.model"]
        assert child.line == 1  # the package runs before the module's first line
        assert "via pkg.state.model -> pkg.state -> pkg.sim" in child.message

    def test_clean_tree_has_no_findings(self, tmp_path):
        pkg = make_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/state/__init__.py": "",
                "pkg/state/model.py": "VALUE = 1\n",
                "pkg/sim.py": "from pkg.state import model\n",
            },
        )
        graph = build_import_graph(pkg)
        # sim -> state is allowed; only state -> sim is forbidden
        assert check_layers(graph, CONTRACT, {}) == []


#: a package with two entry points, a lazily imported module and an orphan
ORPHAN_TREE = {
    "pkg/__init__.py": "",
    "pkg/cli.py": "def main():\n    from pkg.core import run\n    run()\n",
    "pkg/__main__.py": "from pkg.cli import main\n\nmain()\n",
    "pkg/core.py": "def run():\n    return None\n",
    "pkg/orphan.py": "from pkg.core import run\n",
}

REACHABILITY = LayerContract(
    rules=(),
    fingerprint_exempt=(),
    reachability_roots=("pkg.cli", "pkg.__main__"),
)


class TestReachability:
    def test_orphan_module_is_named(self, tmp_path):
        graph = build_import_graph(make_tree(tmp_path, ORPHAN_TREE))
        relpath = {m: p.name for m, p in graph.files.items()}
        findings = check_reachability(graph, REACHABILITY, relpath)
        assert [(f.code, f.path, f.line) for f in findings] == [
            ("L005", "orphan.py", 1)
        ]
        assert findings[0].message.startswith("pkg.orphan ")

    def test_lint_run_fails_on_the_orphan(self, tmp_path):
        make_tree(tmp_path, ORPHAN_TREE)
        result = lint_paths(
            [tmp_path / "pkg"], base=tmp_path, contract=REACHABILITY
        )
        assert [f.code for f in result.findings] == ["L005"]
        assert "pkg.orphan" in result.findings[0].message

    def test_routing_the_orphan_clears_the_finding(self, tmp_path):
        tree = dict(ORPHAN_TREE)
        tree["pkg/core.py"] = (
            "def run():\n    from pkg import orphan\n    return orphan\n"
        )
        tree["pkg/orphan.py"] = "VALUE = 1\n"
        graph = build_import_graph(make_tree(tmp_path, tree))
        assert check_reachability(graph, REACHABILITY, {}) == []

    def test_package_without_a_root_is_not_checked(self, tmp_path):
        graph = build_import_graph(make_tree(tmp_path, ORPHAN_TREE))
        other = LayerContract(
            rules=(), fingerprint_exempt=(), reachability_roots=("repro.cli",)
        )
        assert check_reachability(graph, other, {}) == []


class TestContractFile:
    def test_real_contract_loads(self):
        contract = load_contract()
        codes = {rule.code for rule in contract.rules}
        assert codes == {"L001", "L002", "L003", "L004"}
        assert "repro.obs" in contract.fingerprint_exempt
        assert contract.reachability_roots == ("repro.cli", "repro.__main__")

    def test_console_script_is_a_reachability_root(self):
        tomllib = pytest.importorskip("tomllib")  # absent on Python 3.10
        pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))[
            "project"
        ]["scripts"]
        targets = {target.partition(":")[0] for target in scripts.values()}
        assert targets <= set(load_contract().reachability_roots)

    def test_minimal_parser_agrees_with_tomllib(self):
        tomllib = pytest.importorskip("tomllib")  # absent on Python 3.10
        text = DEFAULT_CONTRACT.read_text(encoding="utf-8")
        assert _parse_toml_minimal(text) == tomllib.loads(text)

    def test_minimal_parser_alone_yields_the_same_contract(self, tmp_path):
        # what the 3.10 lane actually runs: contract loaded through the
        # restricted parser must equal the tomllib-loaded one
        payload = _parse_toml_minimal(
            DEFAULT_CONTRACT.read_text(encoding="utf-8")
        )
        contract = load_contract()
        assert tuple(r["code"] for r in payload["rules"]) == tuple(
            r.code for r in contract.rules
        )
        assert (
            tuple(payload["fingerprint"]["exempt"])
            == contract.fingerprint_exempt
        )
        assert (
            tuple(payload["reachability"]["roots"])
            == contract.reachability_roots
        )
