"""End-to-end lint_paths: findings, dead pragmas, determinism."""

import json

from repro.lint.layers import LayerContract, LayerRule
from repro.lint.runner import lint_paths, module_name_of


def make_tree(tmp_path, serializer_body):
    src = tmp_path / "src"
    (src / "pkg").mkdir(parents=True)
    (src / "pkg" / "__init__.py").write_text("")
    (src / "pkg" / "serialize.py").write_text(serializer_body)
    return tmp_path


DIRTY = "import json\n\n\ndef save(p):\n    return json.dumps(p)\n"


class TestLintPaths:
    def test_relative_paths_and_counts(self, tmp_path):
        tree = make_tree(tmp_path, DIRTY)
        result = lint_paths([tree / "src"], base=tree)
        assert result.n_files == 2
        [finding] = result.findings
        assert finding.path == "src/pkg/serialize.py"
        assert finding.code == "D004"
        assert not result.clean

    def test_dead_pragma_is_reported(self, tmp_path):
        tree = make_tree(
            tmp_path,
            "import json\n\n\ndef save(p):\n"
            "    return json.dumps(p, sort_keys=True)  # repro: allow[D001]\n",
        )
        result = lint_paths([tree / "src"], base=tree)
        assert [f.code for f in result.findings] == ["P001"]

    def test_pragma_suppresses_a_layering_finding(self, tmp_path):
        tree = make_tree(tmp_path, "")
        (tree / "src" / "pkg" / "sim.py").write_text("")
        (tree / "src" / "pkg" / "state.py").write_text(
            "from pkg import sim  # repro: allow[L001] -- deliberate\n"
        )
        contract = LayerContract(
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
        result = lint_paths([tree / "src"], base=tree, contract=contract)
        assert result.findings == []
        [suppressed] = result.pragma_suppressed
        assert (suppressed.code, suppressed.path, suppressed.line) == (
            "L001", "src/pkg/state.py", 1
        )

    def test_cache_invalidated_by_edit(self, tmp_path):
        tree = make_tree(tmp_path, DIRTY)
        assert not lint_paths([tree / "src"], base=tree).clean
        (tree / "src" / "pkg" / "serialize.py").write_text(
            "import json\n\n\ndef save(p):\n"
            "    return json.dumps(p, sort_keys=True)\n"
        )
        assert lint_paths([tree / "src"], base=tree).clean

    def test_payload_is_canonical_json(self, tmp_path):
        tree = make_tree(tmp_path, DIRTY)
        payload = lint_paths([tree / "src"], base=tree).to_payload()
        blob = json.dumps(payload, sort_keys=True)
        assert json.loads(blob) == payload


class TestModuleNameOf:
    def test_walks_up_through_packages(self, tmp_path):
        tree = make_tree(tmp_path, DIRTY)
        path = tree / "src" / "pkg" / "serialize.py"
        assert module_name_of(path) == "pkg.serialize"

    def test_init_maps_to_package(self, tmp_path):
        tree = make_tree(tmp_path, DIRTY)
        assert module_name_of(tree / "src" / "pkg" / "__init__.py") == "pkg"
