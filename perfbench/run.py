"""Closed-loop benchmark of the control loop and the what-if solver.

Run from the repository root:

    python3 perfbench/run.py --workload replay-wan-volatile --seed 0 \\
        --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that splits op time across the
program's layers (see ``perfbench/README.md``).  Every metric is
printed by name with its unit; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Times
are scaled to a reference host speed (see ``hostspeed``); the line
before the result gives them as the wall clock read them.  The full
result, with the environment it ran in, is also written under
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
# one caller, one thread: numpy's BLAS pool would otherwise spin idle
# workers on the other cores after every call (set before numpy loads)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

#: knobs that change how the program runs; cleared for every run
PINNED_ENV = ("REPRO_TE_NO_CACHE", "REPRO_NO_CACHE", "REPRO_WORKERS", "REPRO_TRACE")
#: fresh-process set-ups per run; setup_s is their median
SETUP_REPEATS = 5
#: a set-up process still running after this long is killed
SETUP_TIMEOUT_S = 120.0
WORK_DIR = ROOT / ".perfbench_work"
REFERENCE_FILE = BENCH_DIR / "reference_digests.json"


def reference_digest(name: str, seed: int) -> str | None:
    """The committed digest of ``name``'s first episode at ``seed``."""
    table = json.loads(REFERENCE_FILE.read_text())
    return table.get(name, {}).get(str(seed))


def time_setups(name: str, seed: int, repeats: int) -> list[float]:
    """Wall time of fresh processes that import, generate and construct.

    Unlike op times these are not scaled for host speed: the kernel
    timed in this process did not track a child's set-up time.
    """
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--setup-only", "--workload", name, "--seed", str(seed),
    ]
    return [time_child(command) for _ in range(repeats)]


def time_child(command: list[str]) -> float:
    """Wall time of one child process, from spawn to exit.

    ``wait()`` with a timeout polls every 50 ms, which would round the
    times to 50 ms steps; without one it blocks until the exit, and a
    timer kills a child that hangs.
    """
    start = perf_counter()
    with subprocess.Popen(command, stdout=subprocess.DEVNULL) as child:
        watchdog = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
            watchdog.join()
    wall = perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, command)
    return wall


def measure(workload: Any, seconds: float, first: int) -> list[workloads.Episode]:
    """Whole episodes, numbered from ``first``, for at least ``seconds``."""
    episodes = []
    start = perf_counter()
    while not episodes or perf_counter() - start < seconds:
        # untimed: every episode starts from a collected heap, as a
        # fresh run would, instead of inheriting the last one's garbage
        gc.collect()
        before = hostspeed.kernel_times()
        episode = workload.episode(first + len(episodes))
        episode.slowness = hostspeed.slowness(before, hostspeed.kernel_times())
        episodes.append(episode)
    return episodes


def per_op_s(episodes: list[workloads.Episode], *, scaled: bool = True) -> float:
    busy = sum(e.scaled_busy_s if scaled else e.busy_s for e in episodes)
    return busy / sum(e.n_ops for e in episodes)


def episode_quantile_ms(
    episodes: list[workloads.Episode], decile: int, *, scaled: bool = True
) -> float:
    """Mean over episodes of each episode's ``decile``-th decile op latency.

    An episode lasts well under a second, less than the stretches in
    which a shared host runs slow, so each episode's quantile reflects
    one host speed.  Averaging them moves smoothly with the share of the
    run that fell in a slow stretch, where a quantile over the pooled
    latencies of a run jumps between the fast and slow modes.
    """
    return statistics.fmean(
        1e3 * statistics.quantiles(e.latencies_s, n=10)[decile - 1]
        / (e.slowness if scaled else 1.0)
        for e in episodes
    )


def unscaled_figures(episodes: list[workloads.Episode]) -> dict[str, float]:
    """The op times as the wall clock read them, and how slow the host
    ran, for the record."""
    return {
        "ops_per_s": 1.0 / per_op_s(episodes, scaled=False),
        "op_p50_ms": episode_quantile_ms(episodes, 5, scaled=False),
        "op_p90_ms": episode_quantile_ms(episodes, 9, scaled=False),
        "host_slowness": statistics.median(e.slowness for e in episodes),
    }


def end_to_end_metrics(
    episodes: list[workloads.Episode], setups_s: list[float]
) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (statistics.median(setups_s), "s"),
        "ops_per_s": (1.0 / per_op_s(episodes), "1/s"),
        "op_p50_ms": (episode_quantile_ms(episodes, 5), "ms"),
        "op_p90_ms": (episode_quantile_ms(episodes, 9), "ms"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
    }


def traced_metrics(
    workload: Any, seconds: float
) -> tuple[list[workloads.Episode], dict[str, tuple[float, str]]]:
    """Untraced, layer-traced and ``repro.obs``-traced phases, in turn."""
    from repro.obs.trace import Tracer, tracing

    phase_s = seconds / 3.0
    plain = measure(workload, phase_s, first=0)
    with layers.LayerTracer() as tracer:
        traced = measure(workload, phase_s, first=len(plain))
    with tracing(Tracer()):
        observed = measure(workload, phase_s, first=len(plain) + len(traced))
    n_ops = sum(e.n_ops for e in traced)
    busy_s = sum(e.busy_s for e in traced)
    # layer times scale to the reference host speed as the op time does
    scale = sum(e.scaled_busy_s for e in traced) / busy_s
    metrics = {
        metric: (value * scale if unit == "ms" else value, unit)
        for metric, (value, unit) in layers.layer_metrics(
            tracer, n_ops, busy_s
        ).items()
    }
    metrics["recovery.journal.bytes_per_op"] = (
        sum(e.journal_bytes for e in traced) / n_ops,
        "bytes",
    )
    metrics["bench.timer_overhead_ratio"] = (
        per_op_s(traced) / per_op_s(plain),
        "ratio",
    )
    metrics["obs.tracing_overhead_ratio"] = (
        per_op_s(observed) / per_op_s(plain),
        "ratio",
    )
    return plain + traced + observed, metrics


def on_tmpfs(path: Path) -> bool:
    """Whether ``path`` lives on a tmpfs mount (False where unknown)."""
    target = os.path.realpath(path)
    best, fstype = "", ""
    try:
        with open("/proc/self/mounts") as mounts:
            for line in mounts:
                point, kind = line.split()[1:3]
                inside = target == point or target.startswith(point.rstrip("/") + "/")
                if inside and len(point) > len(best):
                    best, fstype = point, kind
    except OSError:
        return False
    return fstype == "tmpfs"


def environment(name: str, seed: int, workdir: Path) -> dict[str, Any]:
    import scipy
    from scipy.optimize._highspy import _core as highs

    rev = None
    if (ROOT / ".git").exists():
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        ).stdout.strip() or None
    return {
        "workload": name,
        "seed": seed,
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "scipy": scipy.__version__,
        "highs": (
            f"{highs.HIGHS_VERSION_MAJOR}.{highs.HIGHS_VERSION_MINOR}."
            f"{highs.HIGHS_VERSION_PATCH}"
        ),
        "git_rev": rev,
        "journal_on_tmpfs": on_tmpfs(workdir),
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    reference: str | None = None,
    setup_repeats: int = SETUP_REPEATS,
) -> dict[str, Any]:
    """Measure and check one workload; returns the full result record.

    ``reference`` overrides the committed digest for this seed.
    """
    for var in PINNED_ENV:
        os.environ.pop(var, None)
    if reference is None:
        reference = reference_digest(name, seed)
    setups_s = [] if trace else time_setups(name, seed, setup_repeats)
    WORK_DIR.mkdir(exist_ok=True)
    workdir = WORK_DIR / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = workloads.build(name, seed, workdir)
        # untimed: cached must equal uncached at benchmark scale; this
        # pass also lets lazy imports and allocator growth settle
        uncached = workload.episode(0, te_cache=False)
        if trace:
            episodes, metrics = traced_metrics(workload, seconds)
        else:
            episodes = measure(workload, seconds, first=0)
            metrics = end_to_end_metrics(episodes, setups_s)
        env = environment(name, seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = {
        "cached_equals_uncached": episodes[0].digest == uncached.digest,
        "matches_reference": reference is None or episodes[0].digest == reference,
    }
    attempted = sum(e.n_ops for e in episodes)
    failed = (
        attempted if not all(checks.values()) else sum(e.n_failed for e in episodes)
    )
    return {
        "environment": env,
        "trace": trace,
        "setups_s": setups_s,
        "unscaled": unscaled_figures(episodes),
        "digest": episodes[0].digest,
        "reference_digest": reference,
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "metrics": metrics,
    }


def report(record: dict[str, Any]) -> str:
    """Human-readable lines, then the one-line JSON result."""
    env = record["environment"]
    lines = [
        f"workload {env['workload']} seed {env['seed']} "
        f"trace {int(record['trace'])}",
        "environment " + json.dumps(env, sort_keys=True),
        f"checks {json.dumps(record['checks'], sort_keys=True)} "
        f"reference {record['reference_digest'] or 'none for this seed'}",
    ]
    for metric, (value, unit) in record["metrics"].items():
        lines.append(f"  {metric:<42} {value:>14.6g} {unit}")
    lines.append(
        f"  {'error_rate':<42} {record['error_rate']:>14.6g} "
        f"({record['failed']} of {record['attempted']} ops)"
    )
    lines.append(
        "unscaled " + json.dumps(record["unscaled"], sort_keys=True)
    )
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in record["metrics"].items()
        },
    }
    lines.append(json.dumps(result))
    return "\n".join(lines)


def save(record: dict[str, Any]) -> Path:
    """Write the record next to the other runs' results."""
    env = record["environment"]
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / (
        f"{env['workload']}.seed{env['seed']}.trace{int(record['trace'])}.json"
    )
    data = dict(record, metrics={
        metric: {"value": value, "unit": unit}
        for metric, (value, unit) in record["metrics"].items()
    })
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="generate inputs and construct, then exit (timed by the parent)",
    )
    args = parser.parse_args(argv)
    if args.setup_only:
        workloads.build(args.workload, args.seed, WORK_DIR).prepare()
        return 0
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    save(record)
    print(report(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
