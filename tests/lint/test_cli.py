"""CLI exit codes, formats, --explain, and baseline workflow."""

import json
import subprocess
import sys

import pytest

from repro.lint.cli import main

CLEAN_SERIALIZER = (
    "import json\n\n\ndef save(payload):\n"
    "    return json.dumps(payload, sort_keys=True)\n"
)
DIRTY_SERIALIZER = (
    "import json\n\n\ndef save(payload):\n"
    "    return json.dumps(payload)\n"
)


@pytest.fixture
def tree(tmp_path):
    src = tmp_path / "src"
    (src / "pkg").mkdir(parents=True)
    (src / "pkg" / "__init__.py").write_text("")
    (src / "pkg" / "serialize.py").write_text(DIRTY_SERIALIZER)
    return tmp_path


def baseline_arg(tree):
    return ["--baseline", str(tree / "lint-baseline.json")]


class TestExitCodes:
    def test_findings_exit_1(self, tree, capsys):
        code = main([str(tree / "src"), *baseline_arg(tree)])
        assert code == 1
        out = capsys.readouterr().out
        assert "D004" in out
        assert "1 finding(s)" in out

    def test_clean_exit_0(self, tree, capsys):
        (tree / "src" / "pkg" / "serialize.py").write_text(CLEAN_SERIALIZER)
        assert main([str(tree / "src"), *baseline_arg(tree)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_missing_path_exit_2(self, tree, capsys):
        assert main([str(tree / "absent"), *baseline_arg(tree)]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_bad_format_exit_2(self, tree, capsys):
        assert main([str(tree / "src"), "--format", "yaml"]) == 2

    def test_corrupt_baseline_exit_2(self, tree, capsys):
        (tree / "lint-baseline.json").write_text(
            json.dumps({"schema": 99, "findings": []})
        )
        assert main([str(tree / "src"), *baseline_arg(tree)]) == 2


class TestExplain:
    @pytest.mark.parametrize("code", ["D001", "d003", "T001", "B001"])
    def test_known_codes(self, code, capsys):
        assert main(["--explain", code]) == 0
        out = capsys.readouterr().out
        assert code.upper() in out
        assert "why:" in out and "fix:" in out and "suppress:" in out

    def test_unknown_code_exit_2(self, capsys):
        assert main(["--explain", "Z999"]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_retired_f001_exit_2(self, capsys):
        # artifact fingerprints are derived from the import graph now
        assert main(["--explain", "F001"]) == 2
        assert "unknown rule code" in capsys.readouterr().err


class TestJsonFormat:
    def test_payload_shape(self, tree, capsys):
        code = main(
            [str(tree / "src"), "--format", "json", *baseline_arg(tree)]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["clean"] is False
        [finding] = payload["findings"]
        assert finding["code"] == "D004"
        assert finding["path"].endswith("serialize.py")
        assert finding["hint"]


class TestBaselineWorkflow:
    def test_write_then_clean_then_stale(self, tree, capsys):
        # 1. acknowledge the debt
        assert (
            main([str(tree / "src"), "--write-baseline", *baseline_arg(tree)])
            == 0
        )
        assert (tree / "lint-baseline.json").exists()
        # 2. baselined finding no longer fails the gate
        assert main([str(tree / "src"), *baseline_arg(tree)]) == 0
        # 3. paying off the debt makes the entry stale under --strict
        (tree / "src" / "pkg" / "serialize.py").write_text(CLEAN_SERIALIZER)
        assert main([str(tree / "src"), *baseline_arg(tree)]) == 0
        assert (
            main([str(tree / "src"), "--strict", *baseline_arg(tree)]) == 1
        )
        assert "B001" in capsys.readouterr().out


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--explain", "D001"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "D001" in proc.stdout
