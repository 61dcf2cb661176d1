"""CLI exit codes, formats and --explain."""

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


class TestExitCodes:
    def test_findings_exit_1(self, tree, capsys):
        code = main([str(tree / "src")])
        assert code == 1
        out = capsys.readouterr().out
        assert "D004" in out
        assert "1 finding(s)" in out

    def test_clean_exit_0(self, tree, capsys):
        (tree / "src" / "pkg" / "serialize.py").write_text(CLEAN_SERIALIZER)
        assert main([str(tree / "src")]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_missing_path_exit_2(self, tree, capsys):
        assert main([str(tree / "absent")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_bad_format_exit_2(self, tree, capsys):
        assert main([str(tree / "src"), "--format", "yaml"]) == 2

    @pytest.mark.parametrize(
        "flags",
        [["--strict"], ["--no-cache"], ["--baseline", "x.json"], ["--write-baseline"]],
    )
    def test_retired_flags_exit_2(self, tree, flags):
        assert main([str(tree / "src"), *flags]) == 2


class TestExplain:
    @pytest.mark.parametrize("code", ["D001", "d003", "T001", "P001"])
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

    def test_retired_b001_exit_2(self, capsys):
        # no baseline file is read, so no entry of one can go stale
        assert main(["--explain", "B001"]) == 2
        assert "unknown rule code" in capsys.readouterr().err


class TestJsonFormat:
    def test_payload_shape(self, tree, capsys):
        code = main([str(tree / "src"), "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["clean"] is False
        assert payload["suppressed"] == {"pragma": []}
        [finding] = payload["findings"]
        assert finding["code"] == "D004"
        assert finding["path"].endswith("serialize.py")
        assert finding["hint"]


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--explain", "D001"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "D001" in proc.stdout
