"""The analyzer applies to itself — and to the whole shipping tree.

This is the acceptance gate in test form: ``repro lint src/`` must
exit 0 on the committed tree.
"""

from pathlib import Path

from repro.lint.runner import lint_paths

REPO = Path(__file__).resolve().parents[2]


class TestSelfLint:
    def test_lint_package_lints_itself_clean(self):
        result = lint_paths([REPO / "src" / "repro" / "lint"], base=REPO)
        assert [f.render() for f in result.findings] == []

    def test_whole_tree_is_clean(self):
        result = lint_paths([REPO / "src"], base=REPO)
        assert [f.render() for f in result.findings] == []

    def test_two_runs_are_byte_identical(self):
        a = lint_paths([REPO / "src" / "repro" / "lint"], base=REPO)
        b = lint_paths([REPO / "src" / "repro" / "lint"], base=REPO)
        assert a.to_payload() == b.to_payload()
