"""Command-line interface: ``python -m repro <command>`` or ``repro``.

Experiment subcommands are thin wrappers over the experiment registry
(:mod:`repro.experiments`): each one builds a
:class:`~repro.experiments.spec.ScenarioSpec` from its flags, executes it
with :func:`~repro.experiments.registry.run_spec` and prints the experiment's
canonical rendering — exactly what a sweep artifact would replay:

* ``study``        — the Section-2 telemetry study (Figures 2a/2b/4c);
* ``testbed``      — the BVT modulation-change experiment (Figure 6b);
* ``tickets``      — root-cause shares of the ticket corpus (Figure 4a/4b);
* ``throughput``   — static vs. dynamic TE sweep;
* ``availability`` — binary failures vs. dynamic flaps;
* ``theorem``      — the Theorem-1 equivalence check on a random WAN;
* ``reactive``     — reaction-lag replay (scheduled/reactive/proactive);
* ``whatif``       — ticket-corpus what-if replay (binary vs dynamic);
* ``drill``        — cable drill on Abilene: each cable failed vs flapped;
* ``allocators``   — Section 4's SWAN, B4, CSPF and path LP on the
  augmented graph G', plus the Figure-8 gadget;
* ``chaos``        — fault-injection intensity sweep asserting the
  hardened controller's invariants (exit 1 on any violation);
  ``chaos --crash`` instead crashes the controller at every
  (round, seam) point and asserts journal recovery is byte-identical
  to an uninterrupted run.

``sweep`` drives grids of those experiments::

    repro sweep run examples/sweeps/quick.toml   # execute (or resume)
    repro sweep list                             # runs under the sweep root
    repro sweep show quick-1a2b3c4d              # re-render stored artifacts
    repro sweep resume quick-1a2b3c4d            # finish a killed run
    repro sweep compare RUN [RUN_B]              # vs paper, or run vs run

Global flags (``--workers``, ``--no-cache``, ``--bench-json``,
``--trace``, ``--journal``) are accepted both before and after the
subcommand.  ``--workers N`` spreads work over N processes (also the
``REPRO_WORKERS`` env var); ``--no-cache`` bypasses the on-disk summary
cache (``REPRO_CACHE_DIR``), never the in-memory TE solve cache
(:mod:`repro.te.incremental`), which is always on;
``--bench-json PATH`` writes the run's timing report (:func:`repro.obs.metrics.collect`)
to a machine-readable JSON file; ``--journal DIR`` journals controller
state durably under DIR (:mod:`repro.recovery`) so a crashed run
resumes instead of restarting — results are byte-identical either way;
``--trace DIR`` (also the
``REPRO_TRACE`` env var) records the run under a
:class:`~repro.obs.trace.Tracer` and writes ``trace.json`` /
``span_tree.json`` / ``events.jsonl`` / ``metrics.prom`` into DIR —
results are byte-identical with tracing on or off.  Sweep runs live
under ``REPRO_SWEEP_DIR`` (default ``~/.cache/repro/sweeps``); sweep
progress goes to stderr (silence it with ``--quiet``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Sequence


def _version() -> str:
    """Package version — installed metadata, else the source tree's."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        import repro

        return repro.__version__


def _context(args: argparse.Namespace) -> "Any":
    from repro.experiments.registry import ExecutionContext

    return ExecutionContext(
        workers=args.workers,
        cache=not args.no_cache,
        journal_dir=args.journal or None,
    )


def _run_and_render(args: argparse.Namespace, name: str, **params: Any) -> int:
    """The shared experiment-subcommand body: spec -> run -> print."""
    from repro.experiments.registry import render_result, run_spec
    from repro.experiments.spec import ScenarioSpec

    spec = ScenarioSpec.create(f"cli/{name}", name, **params)
    result = run_spec(spec, _context(args))
    print(render_result(name, result))
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    return _run_and_render(
        args, "study", cables=args.cables, years=args.years, seed=args.seed
    )


def _cmd_testbed(args: argparse.Namespace) -> int:
    return _run_and_render(args, "testbed", changes=args.changes, seed=args.seed)


def _cmd_tickets(args: argparse.Namespace) -> int:
    return _run_and_render(args, "tickets", seed=args.seed)


def _cmd_throughput(args: argparse.Namespace) -> int:
    return _run_and_render(
        args,
        "throughput",
        offered_gbps=args.offered_gbps,
        snr_db=args.snr_db,
        scales=tuple(args.scales),
        seed=args.seed,
    )


def _cmd_availability(args: argparse.Namespace) -> int:
    return _run_and_render(
        args, "availability", cables=args.cables, years=args.years, seed=args.seed
    )


def _cmd_theorem(args: argparse.Namespace) -> int:
    from repro.experiments.registry import render_result, run_spec
    from repro.experiments.spec import ScenarioSpec

    spec = ScenarioSpec.create(
        "cli/theorem", "theorem",
        nodes=args.nodes, penalty=args.penalty, seed=args.seed,
    )
    result = run_spec(spec, _context(args))
    print(render_result("theorem", result))
    return 0 if result["holds"] else 1


def _cmd_reactive(args: argparse.Namespace) -> int:
    return _run_and_render(
        args,
        "reactive",
        days=args.days,
        mode=args.mode,
        policy=args.policy,
        seed=args.seed,
        te_interval_h=args.te_interval_h,
    )


def _cmd_chaos_crash(args: argparse.Namespace) -> int:
    """Crash-equivalence sweep: crash, recover, byte-diff vs reference.

    Exit status 0 means every (round, seam) point's crash fault fired,
    the resumed run produced the reference's round count, and its full
    per-round metric arrays were byte-identical to an uninterrupted
    run's.
    """
    import tempfile
    from contextlib import ExitStack

    from repro.faults.chaos import crash_verdicts, run_crash_sweep

    with ExitStack() as stack:
        journal_root = args.journal_root or stack.enter_context(
            tempfile.TemporaryDirectory(prefix="repro-crash-")
        )
        points = run_crash_sweep(
            args.crash_rounds,
            args.seams,
            journal_root=journal_root,
            days=args.days,
            policy=args.policy,
            seed=args.seed,
            te_interval_h=args.te_interval_h,
        )
    for point in points:
        print(
            f"crash round {point['crash_round']:>2} @ {point['seam']:<11}: "
            f"crashed={point['crashed']}, "
            f"resumed {point['n_rounds']}/{point['n_reference_rounds']} "
            f"rounds, identical={point['byte_identical']}"
        )
    problems = crash_verdicts(points)
    if problems:
        for problem in problems:
            print(f"CRASH EQUIVALENCE VIOLATED: {problem}")
        return 1
    print("all crash points recovered byte-identically")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Sweep fault intensity and assert the hardening invariants.

    Exit status 0 means every point's paired runs were byte-identical,
    no round violated BER feasibility, and throughput degraded
    monotonically (within slack) with intensity.  With ``--crash`` the
    sweep instead crashes the controller at every (round, seam) point
    and asserts journal recovery is byte-identical to an uninterrupted
    run.
    """
    from repro.faults.chaos import chaos_verdicts, run_chaos_point

    if args.crash:
        return _cmd_chaos_crash(args)
    points = []
    for intensity in args.intensities:
        point = run_chaos_point(
            days=args.days,
            intensity=intensity,
            policy=args.policy,
            seed=args.seed,
            te_interval_h=args.te_interval_h,
            retries=args.retries,
        )
        points.append(point)
        counts = ", ".join(
            f"{k}={v}" for k, v in sorted(point["fault_counts"].items())
        )
        print(
            f"intensity {intensity:>4.1f}: "
            f"throughput {point['mean_throughput_gbps']:7.1f} Gbps, "
            f"retries {point['n_retries']:>2}, "
            f"TE fallbacks {point['n_te_fallbacks']}, "
            f"stale link-rounds {point['n_stale_link_rounds']}, "
            f"identical={point['byte_identical']}, "
            f"BER violations={point['n_ber_violations']}"
            + (f"  [{counts}]" if counts else "")
        )
    problems = chaos_verdicts(points)
    if problems:
        for problem in problems:
            print(f"INVARIANT VIOLATED: {problem}")
        return 1
    print("all chaos invariants hold")
    return 0


def _cmd_whatif(args: argparse.Namespace) -> int:
    return _run_and_render(
        args,
        "whatif",
        tickets=args.tickets,
        months=args.months,
        offered_gbps=args.offered_gbps,
        fallback_gbps=args.fallback_gbps,
        seed=args.seed,
    )


def _cmd_drill(args: argparse.Namespace) -> int:
    return _run_and_render(
        args,
        "drill",
        offered_gbps=args.offered_gbps,
        fallback_gbps=args.fallback_gbps,
        seed=args.seed,
    )


def _cmd_allocators(args: argparse.Namespace) -> int:
    return _run_and_render(
        args,
        "allocators",
        offered_gbps=args.offered_gbps,
        sparsity=args.sparsity,
        seed=args.seed,
    )


def _cmd_lint(args: argparse.Namespace) -> int:
    """`repro lint` — delegate to the analyzer's own front end."""
    from repro.lint.cli import main as lint_main

    argv: list[str] = list(args.lint_paths)
    if args.explain:
        argv = ["--explain", args.explain]
    if args.strict:
        argv.append("--strict")
    if args.lint_format != "text":
        argv.extend(["--format", args.lint_format])
    if args.baseline != "lint-baseline.json":
        argv.extend(["--baseline", args.baseline])
    if args.write_baseline:
        argv.append("--write-baseline")
    if args.no_cache:
        argv.append("--no-cache")
    return lint_main(argv)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.paper_report import ReportScale, build_report

    scale = (
        ReportScale.paper()
        if args.full
        else ReportScale(n_cables=args.cables, years=args.years, seed=args.seed)
    )
    text = build_report(scale)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.analysis.export import export_all
    from repro.telemetry.dataset import BackboneConfig, BackboneDataset

    dataset = BackboneDataset(
        BackboneConfig(n_cables=args.cables, years=args.years, seed=args.seed)
    )
    print(f"synthesising {dataset.n_links()} links x {args.years} years...")
    summaries = dataset.summaries(workers=args.workers, cache=not args.no_cache)
    paths = export_all(
        args.outdir, summaries, years=args.years, seed=args.seed
    )
    for path in paths:
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# sweep verbs
# ---------------------------------------------------------------------------


def _progress(args: argparse.Namespace) -> "Any":
    """Per-point progress callback: stderr, unless ``--quiet``."""
    if getattr(args, "quiet", False):
        return None
    return lambda line: print(line, file=sys.stderr)


def _cmd_sweep_run(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_sweep
    from repro.experiments.spec import load_sweep

    sweep = load_sweep(args.specfile)
    report = run_sweep(
        sweep,
        args.out or None,
        workers=args.workers,
        context=_context(args),
        max_runs=args.max_runs,
        progress=_progress(args),
        trace=bool(_trace_dir(args)),
    )
    return _sweep_summary(report)


def _cmd_sweep_resume(args: argparse.Namespace) -> int:
    from repro.experiments.runner import resume_sweep
    from repro.experiments.store import resolve_run_dir

    report = resume_sweep(
        resolve_run_dir(args.run),
        workers=args.workers,
        context=_context(args),
        max_runs=args.max_runs,
        progress=_progress(args),
        trace=bool(_trace_dir(args)),
    )
    return _sweep_summary(report)


def _sweep_summary(report: "Any") -> int:
    print(
        f"run dir: {report.run_dir}\n"
        f"{report.n_fresh} fresh, {report.n_reused} reused, "
        f"{report.n_failed} failed, {len(report.pending)} pending"
    )
    return 0 if report.complete else 1


def _cmd_sweep_list(args: argparse.Namespace) -> int:
    from repro.experiments.store import list_runs

    runs = list_runs()
    if not runs:
        print("no sweep runs (see REPRO_SWEEP_DIR)")
        return 0
    print(f"{'run':<40} {'experiment':<14} {'points':>6} {'done':>5}")
    for run in runs:
        print(
            f"{run['run']:<40} {run['experiment']:<14} "
            f"{run['n_points']:>6} {run['n_artifacts']:>5}"
        )
    return 0


def _cmd_sweep_show(args: argparse.Namespace) -> int:
    from repro.experiments.registry import render_result
    from repro.experiments.store import RunStore, resolve_run_dir

    store = RunStore(resolve_run_dir(args.run))
    sweep = store.load_sweep()
    artifacts = store.artifacts()
    print(
        f"sweep {sweep.name!r} (experiment {sweep.experiment!r}): "
        f"{len(artifacts)}/{sweep.n_points} points done"
    )
    for artifact in artifacts:
        print(f"\n== {artifact['spec']['name']} ({artifact['key'][:12]}) ==")
        print(render_result(artifact["experiment"], artifact["result"]))
    return 0


def _cmd_sweep_compare(args: argparse.Namespace) -> int:
    from repro.experiments.compare import (
        compare_runs,
        compare_to_paper,
        render_deltas,
        render_paper_checks,
    )
    from repro.experiments.store import resolve_run_dir

    run_a = resolve_run_dir(args.run_a)
    if args.run_b is None:
        checks = compare_to_paper(run_a)
        print(render_paper_checks(checks))
        return 0 if checks and all(c.ok for c in checks) else 1
    deltas = compare_runs(run_a, resolve_run_dir(args.run_b), rtol=args.rtol)
    print(render_deltas(deltas))
    return 0 if deltas and all(d.ok for d in deltas) else 1


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _global_flags(parser: argparse.ArgumentParser, *, suppress: bool) -> None:
    """Install the global flags on a parser.

    The root parser gets them with real defaults; every subcommand gets
    the same flags via a parent parser with ``default=SUPPRESS`` so a
    flag given *after* the subcommand overrides the root value instead
    of a subparser default silently clobbering it.
    """
    def default(value: Any) -> Any:
        return argparse.SUPPRESS if suppress else value

    parser.add_argument(
        "--workers", type=int, metavar="N", default=default(None),
        help="parallel workers (default: REPRO_WORKERS or serial)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", default=default(False),
        help="bypass the on-disk summary cache (see REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--bench-json", type=str, metavar="PATH", default=default(""),
        help="write the run's timing report (BENCH.json schema) to PATH",
    )
    parser.add_argument(
        "--trace", type=str, metavar="DIR", default=default(""),
        help=(
            "record the run with repro.obs and write trace.json / "
            "span_tree.json / events.jsonl / metrics.prom into DIR "
            "(also the REPRO_TRACE env var; results are unchanged)"
        ),
    )
    parser.add_argument(
        "--journal", type=str, metavar="DIR", default=default(""),
        help=(
            "journal controller state durably under DIR (repro.recovery); "
            "a crashed run resumes from it, results are unchanged"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Run, Walk, Crawl: Towards Dynamic Link "
            "Capacities' (HotNets 2017)"
        ),
    )
    parser.add_argument("--version", action="version", version=f"repro {_version()}")
    _global_flags(parser, suppress=False)
    shared = argparse.ArgumentParser(add_help=False)
    _global_flags(shared, suppress=True)

    sub = parser.add_subparsers(dest="command", required=True)

    study = sub.add_parser(
        "study", parents=[shared], help="Section-2 telemetry study"
    )
    study.add_argument("--cables", type=int, default=14)
    study.add_argument("--years", type=float, default=1.0)
    study.add_argument("--seed", type=int, default=2017)
    study.set_defaults(handler=_cmd_study)

    testbed = sub.add_parser(
        "testbed", parents=[shared], help="Figure-6b BVT experiment"
    )
    testbed.add_argument("--changes", type=int, default=200)
    testbed.add_argument("--seed", type=int, default=68)
    testbed.set_defaults(handler=_cmd_testbed)

    tickets = sub.add_parser(
        "tickets", parents=[shared], help="Figure-4 root-cause shares"
    )
    tickets.add_argument("--seed", type=int, default=2017)
    tickets.set_defaults(handler=_cmd_tickets)

    throughput = sub.add_parser(
        "throughput", parents=[shared], help="static vs dynamic TE sweep"
    )
    throughput.add_argument("--offered-gbps", type=float, default=6000.0)
    throughput.add_argument("--snr-db", type=float, default=16.0)
    throughput.add_argument("--scales", type=float, nargs="+",
                            default=[0.5, 1.0, 2.0])
    throughput.add_argument("--seed", type=int, default=1)
    throughput.set_defaults(handler=_cmd_throughput)

    availability = sub.add_parser(
        "availability", parents=[shared], help="failures vs flaps"
    )
    availability.add_argument("--cables", type=int, default=10)
    availability.add_argument("--years", type=float, default=1.0)
    availability.add_argument("--seed", type=int, default=42)
    availability.set_defaults(handler=_cmd_availability)

    theorem = sub.add_parser(
        "theorem", parents=[shared], help="Theorem-1 equivalence check"
    )
    theorem.add_argument("--nodes", type=int, default=8)
    theorem.add_argument("--penalty", type=float, default=100.0)
    theorem.add_argument("--seed", type=int, default=0)
    theorem.set_defaults(handler=_cmd_theorem)

    reactive = sub.add_parser(
        "reactive", parents=[shared], help="reaction-lag replay"
    )
    reactive.add_argument("--days", type=float, default=2.0)
    reactive.add_argument("--mode", type=str, default="reactive",
                          choices=["scheduled", "reactive", "proactive"])
    reactive.add_argument("--policy", type=str, default="run",
                          choices=["run", "walk", "crawl"])
    reactive.add_argument("--seed", type=int, default=1)
    reactive.add_argument("--te-interval-h", type=float, default=4.0)
    reactive.set_defaults(handler=_cmd_reactive)

    chaos = sub.add_parser(
        "chaos", parents=[shared],
        help="fault-injection sweep asserting the hardening invariants",
    )
    chaos.add_argument("--days", type=float, default=1.0)
    chaos.add_argument("--intensities", type=float, nargs="+",
                       default=[0.0, 0.5, 1.0, 2.0],
                       help="fault-plan intensity grid (0 = no faults)")
    chaos.add_argument("--policy", type=str, default="run",
                       choices=["run", "walk", "crawl"])
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument("--te-interval-h", type=float, default=4.0)
    chaos.add_argument("--retries", type=int, default=3,
                       help="retry budget for BVT/TE failures (0 = fail fast)")
    chaos.add_argument("--crash", action="store_true",
                       help=(
                           "crash-equivalence mode: crash the controller at "
                           "every (round, seam) point, recover from the "
                           "journal, byte-diff vs an uninterrupted run"
                       ))
    chaos.add_argument("--crash-rounds", type=int, nargs="+", default=[0, 2, 5],
                       help="rounds to crash at (with --crash)")
    chaos.add_argument("--seams", type=str, nargs="+",
                       default=["pre-commit", "post-commit", "mid-write"],
                       choices=["pre-commit", "post-commit", "mid-write"],
                       help="crash seams to exercise (with --crash)")
    chaos.add_argument("--journal-root", type=str, default="",
                       help=(
                           "directory for the per-point crash journals "
                           "(default: a temporary directory)"
                       ))
    chaos.set_defaults(handler=_cmd_chaos)

    whatif = sub.add_parser(
        "whatif", parents=[shared], help="ticket-corpus what-if replay"
    )
    whatif.add_argument("--tickets", type=int, default=40)
    whatif.add_argument("--months", type=float, default=7.0)
    whatif.add_argument("--offered-gbps", type=float, default=300.0)
    whatif.add_argument("--fallback-gbps", type=float, default=50.0)
    whatif.add_argument("--seed", type=int, default=2017)
    whatif.set_defaults(handler=_cmd_whatif)

    drill = sub.add_parser(
        "drill", parents=[shared], help="cable drill: failed vs flapped"
    )
    drill.add_argument("--offered-gbps", type=float, default=2500.0)
    drill.add_argument("--fallback-gbps", type=float, default=50.0)
    drill.add_argument("--seed", type=int, default=0)
    drill.set_defaults(handler=_cmd_drill)

    allocators = sub.add_parser(
        "allocators", parents=[shared], help="Section-4 TE allocators on G'"
    )
    allocators.add_argument("--offered-gbps", type=float, default=8000.0)
    allocators.add_argument("--sparsity", type=float, default=0.5)
    allocators.add_argument("--seed", type=int, default=9)
    allocators.set_defaults(handler=_cmd_allocators)

    lint = sub.add_parser(
        "lint",
        parents=[shared],
        help="determinism & layering static analysis (repro.lint)",
        description=(
            "AST + import-graph analysis proving the determinism "
            "contract: wall-clock/randomness/ordering/canonical-JSON "
            "rules, layering (layers.toml), fingerprint closures, "
            "trace-name catalog.  Exit 0 clean, 1 findings, 2 usage "
            "error."
        ),
    )
    lint.add_argument(
        "lint_paths", nargs="*", metavar="PATH", default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument("--strict", action="store_true",
                      help="also fail on stale baseline entries and dead pragmas")
    lint.add_argument("--format", dest="lint_format",
                      choices=["text", "json"], default="text")
    lint.add_argument("--baseline", default="lint-baseline.json",
                      metavar="PATH", help="burn-down baseline file")
    lint.add_argument("--write-baseline", action="store_true",
                      help="rewrite the baseline from current findings")
    lint.add_argument("--explain", metavar="CODE",
                      help="print one rule's rationale and fix, then exit")
    lint.set_defaults(handler=_cmd_lint)

    export = sub.add_parser(
        "export", parents=[shared], help="write per-figure CSV data"
    )
    export.add_argument("outdir", type=str)
    export.add_argument("--cables", type=int, default=12)
    export.add_argument("--years", type=float, default=1.0)
    export.add_argument("--seed", type=int, default=2017)
    export.set_defaults(handler=_cmd_export)

    report = sub.add_parser(
        "report", parents=[shared], help="full reproduction report"
    )
    report.add_argument("--full", action="store_true",
                        help="paper scale (~2,000 links x 2.5 y; slow)")
    report.add_argument("--cables", type=int, default=12)
    report.add_argument("--years", type=float, default=1.0)
    report.add_argument("--seed", type=int, default=2017)
    report.add_argument("--output", type=str, default="")
    report.set_defaults(handler=_cmd_report)

    sweep = sub.add_parser("sweep", help="declarative experiment sweeps")
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)

    sweep_run = sweep_sub.add_parser(
        "run", parents=[shared], help="execute (or resume) a sweep spec file"
    )
    sweep_run.add_argument("specfile", type=str,
                           help="sweep definition (.toml or .json)")
    sweep_run.add_argument("--out", type=str, default="",
                           help="run directory (default: under the sweep root)")
    sweep_run.add_argument("--max-runs", type=int, default=None, metavar="N",
                           help="execute at most N fresh points, defer the rest")
    sweep_run.add_argument("--quiet", action="store_true",
                           help="suppress per-point progress (stderr)")
    sweep_run.set_defaults(handler=_cmd_sweep_run)

    sweep_resume = sweep_sub.add_parser(
        "resume", parents=[shared], help="finish a killed or capped run"
    )
    sweep_resume.add_argument("run", type=str,
                              help="run directory path or name under the root")
    sweep_resume.add_argument("--max-runs", type=int, default=None, metavar="N")
    sweep_resume.add_argument("--quiet", action="store_true",
                              help="suppress per-point progress (stderr)")
    sweep_resume.set_defaults(handler=_cmd_sweep_resume)

    sweep_list = sweep_sub.add_parser(
        "list", parents=[shared], help="list runs under the sweep root"
    )
    sweep_list.set_defaults(handler=_cmd_sweep_list)

    sweep_show = sweep_sub.add_parser(
        "show", parents=[shared], help="re-render a run's stored artifacts"
    )
    sweep_show.add_argument("run", type=str)
    sweep_show.set_defaults(handler=_cmd_sweep_show)

    sweep_compare = sweep_sub.add_parser(
        "compare", parents=[shared],
        help="check a run against the paper, or diff two runs",
    )
    sweep_compare.add_argument("run_a", type=str)
    sweep_compare.add_argument("run_b", type=str, nargs="?", default=None)
    sweep_compare.add_argument("--rtol", type=float, default=0.05,
                               help="relative tolerance for run-vs-run diffs")
    sweep_compare.set_defaults(handler=_cmd_sweep_compare)

    return parser


def _trace_dir(args: argparse.Namespace) -> str:
    """The ``--trace`` target: the flag, else the ``REPRO_TRACE`` env."""
    return getattr(args, "trace", "") or os.environ.get("REPRO_TRACE", "")


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    trace_dir = _trace_dir(args)
    if trace_dir:
        from repro.obs import metrics
        from repro.obs.export import export_run, run_summary
        from repro.obs.trace import Tracer, tracing

        tracer = Tracer()
        with tracing(tracer):
            status = args.handler(args)
        registry = metrics.current()
        paths = export_run(trace_dir, tracer, registry)
        print(run_summary(tracer, registry), file=sys.stderr)
        for path in sorted(paths.values()):
            print(f"wrote {path}", file=sys.stderr)
    else:
        status = args.handler(args)
    if args.bench_json:
        from repro.obs import metrics

        path = metrics.write_bench(
            args.bench_json, extra={"command": args.command}
        )
        print(f"wrote {path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
