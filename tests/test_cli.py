"""Tests for the command-line interface."""

import dataclasses

import pytest

from repro.analysis.paper_report import ReportScale
from repro.cli import _report_scale, build_parser, main
from repro.experiments import registry
from repro.experiments.registry import experiment_names, get_experiment
from repro.recovery.journal import journal_exists

#: every experiment with a generated command (``chaos`` is hand-built)
GENERATED = [name for name in experiment_names() if name != "chaos"]


class _Ran(Exception):
    """Raised by a stand-in ``run_spec`` to hand back the spec it got."""


@pytest.fixture
def captured_spec(monkeypatch):
    """Run ``main`` up to ``run_spec`` and return the spec it builds."""

    def fake_run_spec(spec, context=None):
        raise _Ran(spec)

    monkeypatch.setattr(registry, "run_spec", fake_run_spec)

    def capture(argv):
        with pytest.raises(_Ran) as ran:
            main(argv)
        return ran.value.args[0]

    return capture


def _flag_argv(name, default):
    """``--flag value...`` setting a parameter to its own default."""
    values = default if isinstance(default, tuple) else (default,)
    return ["--" + name.replace("_", "-"), *map(str, values)]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize("command", experiment_names())
    def test_known_commands_parse(self, command):
        args = build_parser().parse_args([command])
        assert callable(args.handler)


class TestGeneratedCommands:
    """Experiment commands are built from the registry, nothing restated."""

    @pytest.mark.parametrize("command", GENERATED)
    def test_flagless_command_runs_the_registry_defaults(
        self, command, captured_spec
    ):
        spec = captured_spec([command])
        assert spec.experiment == command
        assert spec.params == ()

    @pytest.mark.parametrize("command", experiment_names())
    def test_every_parameter_is_a_flag(self, command):
        defaults = get_experiment(command).defaults_dict()
        if command == "chaos":
            del defaults["intensity"]  # the --intensities grid replaces it
        argv = [command]
        for name, default in defaults.items():
            argv += _flag_argv(name, default)
        args = build_parser().parse_args(argv)
        for name, default in defaults.items():
            given = getattr(args, name)
            assert (tuple(given) if isinstance(default, tuple) else given) == default

    def test_only_given_flags_reach_the_spec(self, captured_spec):
        spec = captured_spec(["reactive", "--dip-db", "0", "--policy", "walk"])
        assert spec.params_dict() == {"dip_db": 0.0, "policy": "walk"}

    def test_registry_default_decides_what_runs(self, monkeypatch, capsys):
        testbed = get_experiment("testbed")
        monkeypatch.setitem(
            registry._REGISTRY,
            "testbed",
            dataclasses.replace(testbed, defaults=(("changes", 7), ("seed", 68))),
        )
        assert main(["testbed"]) == 0
        assert "7 modulation changes per procedure" in capsys.readouterr().out

    def test_reactive_parameters_sweeps_could_already_set(self, capsys):
        assert main(["reactive", "--dip-db", "0", "--days", "0.5"]) == 0
        assert "rounds:" in capsys.readouterr().out

    def test_bad_choice_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reactive", "--mode", "bogus"])
        assert exc.value.code == 2
        assert "scheduled" in capsys.readouterr().err

    def test_failed_verdict_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(
            registry,
            "run_spec",
            lambda spec, context=None: {
                "maxflow_on_full_g": 1.0,
                "mcmf_on_augmented": 0.0,
                "maxflow_on_static_g": 0.0,
                "holds": False,
            },
        )
        assert main(["theorem"]) == 1
        assert "Theorem 1 holds: False" in capsys.readouterr().out


class TestLintCommand:
    """``repro lint ARGS`` hands ARGS to ``repro.lint.cli`` unchanged."""

    def test_explain(self, capsys):
        assert main(["lint", "--explain", "L005"]) == 0
        assert capsys.readouterr().out.startswith("L005: ")

    def test_explain_unknown_rule_is_a_usage_error(self, capsys):
        assert main(["lint", "--explain", "ZZZ"]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_clean_file(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("def f(x):\n    return x + 1\n")
        assert main(["lint", str(path)]) == 0
        assert "0 finding(s) in 1 file(s)" in capsys.readouterr().out

    def test_help_is_the_linters_own(self, capsys):
        assert main(["lint", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: repro lint [-h] [--format")

    @pytest.mark.parametrize(
        "argv", [["--no-cache", "lint", "PATH"], ["lint", "--no-cache", "PATH"]]
    )
    def test_no_cache_in_either_position(self, argv, tmp_path, capsys):
        # before ``lint`` it is the global flag; after it, every argument
        # is the linter's, and the linter has no cache
        path = tmp_path / "clean.py"
        path.write_text("def f(x):\n    return x + 1\n")
        status = main([str(path) if a == "PATH" else a for a in argv])
        assert status == (0 if argv[0] == "--no-cache" else 2)

    def test_other_commands_reject_unknown_flags(self):
        with pytest.raises(SystemExit) as exc:
            main(["tickets", "--strict"])
        assert exc.value.code == 2


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["testbed", "--changes", "5"],
            ["chaos", "--days", "0.5"],
            ["report"],
            ["sweep", "list"],
        ],
    )
    def test_journal_flag_on_a_command_that_does_not_journal_exits_2(
        self, tmp_path, capsys, argv
    ):
        journal = tmp_path / "journal"
        for flagged in (["--journal", str(journal), *argv],
                        [*argv, "--journal", str(journal)]):
            assert main(flagged) == 2
            captured = capsys.readouterr()
            (line,) = captured.err.splitlines()
            assert line.startswith("error: --journal:")
            assert "repro reactive" in line
            assert captured.out == ""
        assert not journal.exists()

    def test_report_and_export_default_to_the_quick_scale(self):
        parser = build_parser()
        for argv in (["report"], ["export", "out"]):
            assert _report_scale(parser.parse_args(argv)) == ReportScale.quick()
        given = parser.parse_args(["export", "out", "--cables", "4", "--seed", "9"])
        assert _report_scale(given) == ReportScale(n_cables=4, years=1.0, seed=9)
        assert _report_scale(parser.parse_args(["report", "--full"])) == (
            ReportScale.paper()
        )


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

    @pytest.mark.parametrize(
        "payload, named",
        [
            ({"name": "b", "experiment": "reactive", "params": {"mode": "bogus"}},
             "'scheduled', 'reactive', 'proactive'"),
            ({"name": "b", "experiment": "reactive", "params": {"frob": 1}},
             "'dip_db'"),
            ({"name": "b", "params": {"days": 1.0}}, "reactive, study"),
        ],
        ids=["bad-choice", "unknown-parameter", "no-experiment"],
    )
    def test_bad_spec_is_a_usage_error(
        self, tmp_path, sweep_root, capsys, payload, named
    ):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert main(["sweep", "run", str(path)]) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: sweep spec {path}: ")
        assert named in line
        assert "'b'" in line  # the spec is named
        assert captured.out == ""
        assert not (sweep_root / "sweeps").exists()  # no point ran

    def test_journal_flag_on_a_sweep_that_does_not_journal_exits_2(
        self, tmp_path, sweep_root, capsys
    ):
        spec = self.write_spec(tmp_path)
        journal = tmp_path / "journal"
        assert main(["sweep", "run", str(spec), "--journal", str(journal)]) == 2
        assert "a sweep of 'theorem' does not journal" in capsys.readouterr().err
        out_dir = str(tmp_path / "run")
        assert main(["sweep", "run", str(spec), "--out", out_dir,
                     "--max-runs", "0"]) == 1
        capsys.readouterr()
        assert main(["sweep", "resume", out_dir, "--journal", str(journal)]) == 2
        assert "a sweep of 'theorem' does not journal" in capsys.readouterr().err
        assert not journal.exists()

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

    def test_compare_unknown_run_exits_nonzero(self, tmp_path, capsys):
        assert main(["sweep", "compare", "ghost"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: no sweep run at 'ghost' ")

    @pytest.mark.parametrize(
        "argv",
        [["show", "ghost"], ["resume", "ghost"], ["compare", "RUN", "ghost"]],
        ids=["show", "resume", "compare-second-run"],
    )
    def test_unknown_run_is_a_usage_error(self, tmp_path, capsys, argv):
        run = str(tmp_path / "run")
        main(["sweep", "run", str(self.write_spec(tmp_path)), "--out", run])
        capsys.readouterr()
        argv = [run if a == "RUN" else a for a in argv]
        assert main(["sweep", *argv]) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: no sweep run at 'ghost' ")
        assert captured.out == ""

    def test_missing_spec_file_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "nope.toml"
        assert main(["sweep", "run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: sweep spec {path}: No such file or directory"
        ]
        assert captured.out == ""

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
