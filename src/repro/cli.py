"""Command-line interface: ``python -m repro <command>`` or ``repro``.

Every experiment in :mod:`repro.experiments.registry` is a subcommand
built from its registration (``repro --help`` lists their
descriptions): one ``--param-name`` flag per entry of its ``defaults``,
typed by the default and limited to its ``choices``.  Only the flags
given go into the :class:`~repro.experiments.spec.ScenarioSpec`, which
:func:`~repro.experiments.registry.run_spec` executes; the command
prints the experiment's canonical rendering — exactly what a sweep
artifact would replay — and exits 1 when the experiment's ``ok``
verdict is false.  ``chaos`` sweeps the ``chaos`` experiment over an
intensity grid and asserts the hardened controller's invariants (exit
1 on any violation); ``chaos --crash`` instead crashes the controller
at every (round, seam) point and asserts journal recovery is
byte-identical to an uninterrupted run.  ``repro lint ARGS`` hands ARGS
to :mod:`repro.lint.cli` as they are, so global flags go before
``lint``.

``sweep`` drives grids of those experiments::

    repro sweep run examples/sweeps/quick.toml   # execute (or resume)
    repro sweep list                             # runs under the sweep root
    repro sweep show quick-1a2b3c4d              # re-render stored artifacts
    repro sweep resume quick-1a2b3c4d            # finish a killed run
    repro sweep compare RUN [RUN_B]              # vs paper, or run vs run

A spec file that cannot be read, a bad spec and an unknown run name
are usage errors: one ``error:`` line on stderr, exit 2.

Global flags (``--workers``, ``--no-cache``, ``--trace``,
``--journal``) are accepted both before and after the subcommand
(``lint`` excepted).
``--workers N`` spreads work over N processes (also the
``REPRO_WORKERS`` env var); ``--no-cache`` bypasses the on-disk summary
cache (``REPRO_CACHE_DIR``), never the in-memory TE solve cache
(:mod:`repro.te.incremental`), which is always on, and it does not
reach ``lint``, which caches nothing; ``--journal DIR``
journals controller state durably under DIR (:mod:`repro.recovery`) so
a crashed run resumes instead of restarting — results are
byte-identical either way — for the experiments in
:data:`~repro.experiments.registry.JOURNALED` and sweeps of them (any
other command exits 2 instead of ignoring it); ``--trace DIR`` (also
the ``REPRO_TRACE`` env var) records the run under a
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


def _usage_error(message: str) -> int:
    """A command-line mistake the parser cannot see: one line, exit 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _journal_error(
    args: argparse.Namespace, experiment: str, what: str
) -> int | None:
    """Exit 2 when ``--journal`` is given to ``what``, which runs
    ``experiment`` (or is a command) that never journals."""
    from repro.experiments.registry import JOURNALED

    if not args.journal or experiment in JOURNALED:
        return None
    return _usage_error(
        f"--journal: {what} does not journal "
        f"(only `repro {' '.join(JOURNALED)}` and sweeps of it do)"
    )


def _context(args: argparse.Namespace) -> "Any":
    from repro.experiments.registry import ExecutionContext

    return ExecutionContext(
        workers=args.workers,
        cache=not args.no_cache,
        journal_dir=args.journal or None,
    )


def _param_flags(
    parser: argparse.ArgumentParser, experiment: Any, *, skip: tuple[str, ...] = ()
) -> None:
    """One ``--param-name`` flag per entry of ``experiment.defaults``.

    The flag's type comes from the default (a tuple default takes one or
    more values) and its allowed values from ``experiment.choices``.  Its
    default is suppressed, so only the flags given reach the spec and the
    registry stays the one place a default is stated.
    """
    choices = dict(experiment.choices)
    for name, default in experiment.defaults:
        if name in skip:
            continue
        many = isinstance(default, tuple)
        parser.add_argument(
            "--" + name.replace("_", "-"),
            dest=name,
            type=type(default[0] if many else default),
            nargs="+" if many else None,
            choices=choices.get(name),
            default=argparse.SUPPRESS,
            help=f"default: {' '.join(map(str, default)) if many else default}",
        )


def _params(args: argparse.Namespace, experiment: Any) -> dict[str, Any]:
    """The experiment parameters given on the command line."""
    return {
        name: getattr(args, name)
        for name, _ in experiment.defaults
        if hasattr(args, name)
    }


def _cmd_experiment(args: argparse.Namespace) -> int:
    """Every registered experiment's command: spec -> run -> print."""
    from repro.experiments.registry import get_experiment, render_result, run_spec
    from repro.experiments.spec import ScenarioSpec

    experiment = get_experiment(args.command)
    spec = ScenarioSpec.create(
        f"cli/{experiment.name}", experiment.name, **_params(args, experiment)
    )
    result = run_spec(spec, _context(args))
    print(render_result(experiment.name, result))
    return 0 if experiment.ok(result) else 1


def _cmd_chaos_crash(args: argparse.Namespace, params: dict[str, Any]) -> int:
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
            **params,
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
    from repro.experiments.registry import get_experiment, resolve_params
    from repro.experiments.spec import ScenarioSpec
    from repro.faults.chaos import chaos_verdicts, run_chaos_point

    given = _params(args, get_experiment("chaos"))
    params = resolve_params(ScenarioSpec.create("cli/chaos", "chaos", **given))
    del params["intensity"]  # the --intensities grid replaces it
    if args.crash:
        del params["retries"]
        return _cmd_chaos_crash(args, params)
    points = []
    for intensity in args.intensities:
        point = run_chaos_point(intensity=intensity, **params)
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


def _cmd_lint(args: argparse.Namespace) -> int:
    """`repro lint ARGS` — ARGS go to the analyzer's own front end."""
    from repro.lint.cli import main as lint_main

    return lint_main(args.lint_argv)


def _report_scale(args: argparse.Namespace) -> "Any":
    """``ReportScale.quick()`` (``--full``: ``.paper()``) with the
    ``--cables`` / ``--years`` / ``--seed`` given on top."""
    from dataclasses import replace

    from repro.analysis.paper_report import ReportScale

    if getattr(args, "full", False):
        return ReportScale.paper()
    given = {
        k: getattr(args, k) for k in ("n_cables", "years", "seed") if hasattr(args, k)
    }
    return replace(ReportScale.quick(), **given)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.paper_report import build_report

    text = build_report(_report_scale(args))
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

    scale = _report_scale(args)
    dataset = BackboneDataset(
        BackboneConfig(n_cables=scale.n_cables, years=scale.years, seed=scale.seed)
    )
    print(f"synthesising {dataset.n_links()} links x {scale.years} years...")
    summaries = dataset.summaries(workers=args.workers, cache=not args.no_cache)
    paths = export_all(
        args.outdir, summaries, years=scale.years, seed=scale.seed
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
    from repro.experiments.registry import resolve_params
    from repro.experiments.runner import run_sweep
    from repro.experiments.spec import load_sweep

    # a bad spec is a usage error, found before any point runs
    try:
        sweep = load_sweep(args.specfile)
        for spec in sweep.expand():
            resolve_params(spec)
    except OSError as exc:
        return _usage_error(f"sweep spec {args.specfile}: {exc.strerror}")
    except (KeyError, ValueError) as exc:
        return _usage_error(f"sweep spec {args.specfile}: {exc.args[0]}")
    refused = _journal_error(
        args, sweep.experiment, f"a sweep of {sweep.experiment!r}"
    )
    if refused is not None:
        return refused
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
    from repro.experiments.store import RunStore, resolve_run_dir

    try:
        run_dir = resolve_run_dir(args.run)
    except FileNotFoundError as exc:
        return _usage_error(exc.args[0])
    experiment = RunStore(run_dir).load_sweep().experiment
    refused = _journal_error(args, experiment, f"a sweep of {experiment!r}")
    if refused is not None:
        return refused
    report = resume_sweep(
        run_dir,
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

    try:
        store = RunStore(resolve_run_dir(args.run))
    except FileNotFoundError as exc:
        return _usage_error(exc.args[0])
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

    try:
        run_a = resolve_run_dir(args.run_a)
        run_b = None if args.run_b is None else resolve_run_dir(args.run_b)
    except FileNotFoundError as exc:
        return _usage_error(exc.args[0])
    if run_b is None:
        checks = compare_to_paper(run_a)
        print(render_paper_checks(checks))
        return 0 if checks and all(c.ok for c in checks) else 1
    deltas = compare_runs(run_a, run_b, rtol=args.rtol)
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
            "a crashed run resumes from it, results are unchanged "
            "(reactive runs and sweeps of them; other commands refuse it)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    from repro.experiments.registry import experiment_names, get_experiment
    from repro.faults.spec import CRASH_SEAMS

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

    for name in experiment_names():
        if name == "chaos":
            continue
        experiment = get_experiment(name)
        command = sub.add_parser(
            name,
            parents=[shared],
            help=experiment.description,
            description=experiment.description,
        )
        _param_flags(command, experiment)
        command.set_defaults(handler=_cmd_experiment)

    chaos = sub.add_parser(
        "chaos", parents=[shared],
        help="fault-injection sweep asserting the hardening invariants",
    )
    _param_flags(chaos, get_experiment("chaos"), skip=("intensity",))
    chaos.add_argument("--intensities", type=float, nargs="+",
                       default=[0.0, 0.5, 1.0, 2.0],
                       help="fault-plan intensity grid (0 = no faults)")
    chaos.add_argument("--crash", action="store_true",
                       help=(
                           "crash-equivalence mode: crash the controller at "
                           "every (round, seam) point, recover from the "
                           "journal, byte-diff vs an uninterrupted run"
                       ))
    chaos.add_argument("--crash-rounds", type=int, nargs="+", default=[0, 2, 5],
                       help="rounds to crash at (with --crash)")
    chaos.add_argument("--seams", type=str, nargs="+", default=list(CRASH_SEAMS),
                       choices=CRASH_SEAMS,
                       help="crash seams to exercise (with --crash)")
    chaos.add_argument("--journal-root", type=str, default="",
                       help=(
                           "directory for the per-point crash journals "
                           "(default: a temporary directory)"
                       ))
    chaos.set_defaults(handler=_cmd_chaos)

    # no flags of its own, global ones included: the arguments after
    # ``lint`` are forwarded
    lint = sub.add_parser(
        "lint", add_help=False,
        help="determinism & layering static analysis (see repro lint --help)",
    )
    lint.set_defaults(handler=_cmd_lint)

    # the report/export data scale; an unset flag keeps ReportScale.quick()'s
    scale = argparse.ArgumentParser(add_help=False)
    scale.add_argument("--cables", dest="n_cables", type=int,
                       default=argparse.SUPPRESS)
    scale.add_argument("--years", type=float, default=argparse.SUPPRESS)
    scale.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    export = sub.add_parser(
        "export", parents=[shared, scale], help="write per-figure CSV data"
    )
    export.add_argument("outdir", type=str)
    export.set_defaults(handler=_cmd_export)

    report = sub.add_parser(
        "report", parents=[shared, scale], help="full reproduction report"
    )
    report.add_argument("--full", action="store_true",
                        help="paper scale (~2,000 links x 2.5 y; slow)")
    report.add_argument("--output", type=str, default="")
    report.set_defaults(handler=_cmd_report)

    sweep = sub.add_parser("sweep", help="declarative experiment sweeps")
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)

    executing = argparse.ArgumentParser(add_help=False, parents=[shared])
    executing.add_argument("--max-runs", type=int, default=None, metavar="N",
                           help="execute at most N fresh points, defer the rest")
    executing.add_argument("--quiet", action="store_true",
                           help="suppress per-point progress (stderr)")

    sweep_run = sweep_sub.add_parser(
        "run", parents=[executing], help="execute (or resume) a sweep spec file"
    )
    sweep_run.add_argument("specfile", type=str,
                           help="sweep definition (.toml or .json)")
    sweep_run.add_argument("--out", type=str, default="",
                           help="run directory (default: under the sweep root)")
    sweep_run.set_defaults(handler=_cmd_sweep_run)

    sweep_resume = sweep_sub.add_parser(
        "resume", parents=[executing], help="finish a killed or capped run"
    )
    sweep_resume.add_argument("run", type=str,
                              help="run directory path or name under the root")
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
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "lint":
        args.lint_argv = rest
    elif rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    if args.command != "sweep" or args.sweep_command not in ("run", "resume"):
        refused = _journal_error(args, args.command, f"repro {args.command}")
        if refused is not None:
            return refused
    trace_dir = _trace_dir(args)
    if not trace_dir:
        return args.handler(args)
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
    return status


if __name__ == "__main__":
    sys.exit(main())
