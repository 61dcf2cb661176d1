"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.recovery.journal import journal_exists


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize(
        "command",
        [
            "study", "testbed", "tickets", "throughput", "availability",
            "theorem", "drill", "allocators",
        ],
    )
    def test_known_commands_parse(self, command):
        args = build_parser().parse_args([command])
        assert callable(args.handler)


class TestCommands:
    def test_testbed(self, capsys):
        assert main(["testbed", "--changes", "30"]) == 0
        out = capsys.readouterr().out
        assert "standard" in out
        assert "efficient" in out

    def test_tickets(self, capsys):
        assert main(["tickets"]) == 0
        out = capsys.readouterr().out
        assert "Fiber cut" in out
        assert "opportunity area" in out

    def test_theorem(self, capsys):
        assert main(["theorem", "--nodes", "5", "--seed", "3"]) == 0
        assert "Theorem 1 holds: True" in capsys.readouterr().out

    def test_study_small(self, capsys):
        assert main(["study", "--cables", "2", "--years", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "HDR" in out

    def test_throughput(self, capsys):
        assert (
            main(["throughput", "--scales", "0.5", "--offered-gbps", "1000"]) == 0
        )
        assert "gain x" in capsys.readouterr().out

    def test_availability_small(self, capsys):
        assert main(["availability", "--cables", "2", "--years", "0.1"]) == 0
        assert "binary failures" in capsys.readouterr().out

    def test_drill(self, capsys):
        assert main(["drill", "--offered-gbps", "1500"]) == 0
        out = capsys.readouterr().out
        assert "28 links, 14 cables, 110 demands" in out
        assert "worst binary loss" in out

    def test_allocators_small(self, capsys):
        argv = ["allocators", "--offered-gbps", "2000", "--sparsity", "0.95"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "every allocator valid on G' unmodified: True" in out
        assert "path k=8" in out


class TestGlobalFlags:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("repro ")

    def test_flags_accepted_before_subcommand(self):
        args = build_parser().parse_args(["--workers", "3", "tickets"])
        assert args.workers == 3

    def test_flags_accepted_after_subcommand(self):
        args = build_parser().parse_args(["tickets", "--workers", "3"])
        assert args.workers == 3

    def test_subcommand_flag_overrides_root(self):
        args = build_parser().parse_args(
            ["--workers", "1", "tickets", "--workers", "5"]
        )
        assert args.workers == 5

    def test_flag_after_subcommand_does_not_clobber_root(self):
        # the SUPPRESS parent parser must not reset root values
        args = build_parser().parse_args(["--workers", "4", "tickets"])
        assert args.workers == 4
        assert args.no_cache is False

    def test_no_cache_positions(self):
        assert build_parser().parse_args(["--no-cache", "tickets"]).no_cache
        assert build_parser().parse_args(["tickets", "--no-cache"]).no_cache

    def test_reactive_command(self, capsys):
        assert main(["reactive", "--days", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "mode=reactive" in out
        assert "rounds:" in out

    def test_journal_flag_does_not_change_output(self, tmp_path, capsys):
        # plain, journaled, then the same journaled command again, which
        # resumes the finished journal: all three print the same bytes
        journal = str(tmp_path / "journal")
        outputs = []
        for argv in (
            ["reactive", "--days", "0.5"],
            ["--journal", journal, "reactive", "--days", "0.5"],
            ["--journal", journal, "reactive", "--days", "0.5"],
        ):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert journal_exists(journal)
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]


class TestSweepCommands:
    @pytest.fixture(autouse=True)
    def sweep_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_DIR", str(tmp_path / "sweeps"))
        return tmp_path

    def write_spec(self, tmp_path):
        import json

        path = tmp_path / "t.json"
        path.write_text(json.dumps({
            "name": "t", "experiment": "theorem",
            "params": {"nodes": 5}, "axes": {"seed": [3, 4]},
        }))
        return path

    def test_run_then_reuse(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        assert main(["sweep", "run", str(spec)]) == 0
        assert "2 fresh" in capsys.readouterr().out
        assert main(["sweep", "run", str(spec)]) == 0
        assert "2 reused" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "experiment, params",
        [
            ("drill", {"offered_gbps": 1500.0}),
            ("allocators", {"offered_gbps": 2000.0, "sparsity": 0.95}),
        ],
    )
    def test_sweep_runs_the_routed_experiments(
        self, tmp_path, capsys, experiment, params
    ):
        import json

        path = tmp_path / "r.json"
        path.write_text(json.dumps({
            "name": "r", "experiment": experiment, "params": params,
            "axes": {"seed": [1]},
        }))
        assert main(["sweep", "run", str(path), "--quiet"]) == 0
        assert "1 fresh" in capsys.readouterr().out

    def test_list_and_show(self, tmp_path, capsys):
        main(["sweep", "run", str(self.write_spec(tmp_path))])
        capsys.readouterr()
        assert main(["sweep", "list"]) == 0
        out = capsys.readouterr().out
        assert "theorem" in out
        run_name = [l for l in out.splitlines() if l.startswith("t-")][0].split()[0]
        assert main(["sweep", "show", run_name]) == 0
        out = capsys.readouterr().out
        assert "2/2 points done" in out
        assert "Theorem 1 holds: True" in out

    def test_resume_after_cap(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        out_dir = str(tmp_path / "run")
        assert main(["sweep", "run", str(spec), "--out", out_dir,
                     "--max-runs", "1"]) == 1
        capsys.readouterr()
        assert main(["sweep", "resume", out_dir]) == 0
        assert "1 fresh, 1 reused" in capsys.readouterr().out

    def test_compare_to_paper(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        out_dir = str(tmp_path / "run")
        main(["sweep", "run", str(spec), "--out", out_dir])
        capsys.readouterr()
        assert main(["sweep", "compare", out_dir]) == 0
        assert "within the stated bands" in capsys.readouterr().out

    def test_compare_two_runs(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["sweep", "run", str(spec), "--out", a])
        main(["sweep", "run", str(spec), "--out", b])
        capsys.readouterr()
        assert main(["sweep", "compare", a, b]) == 0
        assert "within tolerance" in capsys.readouterr().out

    def test_compare_unknown_run_exits_nonzero(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["sweep", "compare", "ghost"])

    def test_progress_streams_to_stderr(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        assert main(["sweep", "run", str(spec)]) == 0
        captured = capsys.readouterr()
        assert "[1/2]" in captured.err
        assert "[2/2]" in captured.err
        assert "[1/2]" not in captured.out  # progress is stderr-only

    def test_quiet_suppresses_progress(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        assert main(["sweep", "run", str(spec), "--quiet"]) == 0
        captured = capsys.readouterr()
        assert "[1/2]" not in captured.err
        assert "2 fresh" in captured.out  # the final report still prints

    def test_resume_progress_and_quiet(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        out_dir = str(tmp_path / "run")
        main(["sweep", "run", str(spec), "--out", out_dir, "--quiet"])
        capsys.readouterr()
        assert main(["sweep", "resume", out_dir]) == 0
        assert "reused" in capsys.readouterr().err


class TestTraceFlag:
    def test_trace_writes_artifact_set(self, tmp_path, capsys):
        out = tmp_path / "obs"
        assert main(["--trace", str(out), "testbed", "--changes", "5"]) == 0
        captured = capsys.readouterr()
        assert (out / "trace.json").is_file()
        assert (out / "span_tree.json").is_file()
        assert (out / "events.jsonl").is_file()
        assert "repro.obs run summary" in captured.err
        assert "wrote" in captured.err

    def test_trace_env_var(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "obs"
        monkeypatch.setenv("REPRO_TRACE", str(out))
        assert main(["theorem", "--nodes", "5", "--seed", "3"]) == 0
        capsys.readouterr()
        assert (out / "span_tree.json").is_file()

    def test_trace_flag_after_subcommand(self, tmp_path, capsys):
        out = tmp_path / "obs"
        assert main(["testbed", "--changes", "5", "--trace", str(out)]) == 0
        capsys.readouterr()
        assert (out / "trace.json").is_file()

    def test_untraced_run_writes_nothing(self, tmp_path, capsys):
        assert main(["theorem", "--nodes", "5", "--seed", "3"]) == 0
        assert "run summary" not in capsys.readouterr().err

    def test_traced_results_match_untraced(self, tmp_path, capsys):
        assert main(["theorem", "--nodes", "5", "--seed", "3"]) == 0
        untraced = capsys.readouterr().out
        assert main(["--trace", str(tmp_path / "obs"), "theorem",
                     "--nodes", "5", "--seed", "3"]) == 0
        assert capsys.readouterr().out == untraced
