"""Resumable parallel sweep execution.

:func:`run_sweep` expands a :class:`~repro.experiments.spec.Sweep` into
concrete specs, skips every point whose artifact already sits in the
run directory (recording it as ``reused``), and executes the rest over
the shared worker pool (:mod:`repro.parallel` — process pool with
thread fallback, same machinery as cable synthesis).  Each completed
point is persisted immediately — artifact first, then the manifest
line — so killing the process at any moment loses at most the points
still in flight; :func:`resume_sweep` (or simply re-running the same
spec file) picks up exactly the missing ones.

Every run executes inside :func:`repro.obs.metrics.isolated`, so its
artifact carries its *own* :class:`~repro.obs.metrics.MetricsRegistry`
(``metrics``, in mergeable form) instead of an accumulation of
whatever ran earlier in the process.  The sweep folds every completed
point's registry into one fleet-wide view
(:attr:`SweepReport.metrics`); merged totals are invariant to the
worker count.  With ``trace=True`` each point additionally runs under
a :class:`~repro.obs.trace.Tracer` and its span/event record is exported
into the run directory's ``obs/<key>/`` (see
:meth:`~repro.experiments.store.RunStore.save_obs`).
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

from repro.experiments.registry import ExecutionContext, run_spec, spec_key
from repro.experiments.spec import ScenarioSpec, Sweep
from repro.experiments.store import ManifestEntry, RunStore, run_dir_for
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.parallel import pool_map, resolve_workers

ProgressFn = Callable[[str], None]


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one sweep point in this session."""

    name: str
    key: str
    status: str  # "fresh" | "reused" | "failed"
    elapsed_s: float = 0.0
    error: str | None = None


@dataclass(frozen=True)
class SweepReport:
    """What one ``run_sweep`` session did."""

    run_dir: Path
    records: tuple[RunRecord, ...]
    #: points left unexecuted (``max_runs`` budget exhausted)
    pending: tuple[str, ...] = field(default_factory=tuple)
    #: fleet-wide metrics merged over every completed point's registry
    #: (worker-count invariant; None when no artifact carried metrics)
    metrics: obs_metrics.MetricsRegistry | None = None

    @property
    def n_fresh(self) -> int:
        return sum(1 for r in self.records if r.status == "fresh")

    @property
    def n_reused(self) -> int:
        return sum(1 for r in self.records if r.status == "reused")

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.records if r.status == "failed")

    @property
    def complete(self) -> bool:
        return not self.pending and self.n_failed == 0


def _point_context(context: ExecutionContext, key: str) -> ExecutionContext:
    """Per-point context: a sweep-level journal dir becomes a root.

    Two points journaling into one directory would collide (a fresh
    bind refuses an existing journal), so each point journals into a
    subdirectory named by its artifact key — stable across resumes,
    exactly like the artifacts themselves.
    """
    if context.journal_dir is None:
        return context
    return replace(context, journal_dir=os.path.join(context.journal_dir, key))


def _execute_point(payload: dict[str, Any]) -> dict[str, Any]:
    """Run one spec inside a worker; returns the artifact payload.

    Module-level so a process pool can pickle it.  Failures are folded
    into the payload (``error`` key) rather than raised, so one broken
    point cannot abort the rest of the sweep.
    """
    spec = ScenarioSpec.from_payload(payload["spec"])
    context = ExecutionContext(**payload["context"])
    tracer = obs_trace.Tracer() if payload.get("trace") else None
    # repro: allow[D001] -- elapsed_s is operational metadata, never keyed
    start = time.perf_counter()
    try:
        with obs_metrics.isolated() as registry:
            if tracer is not None:
                with obs_trace.tracing(tracer):
                    with tracer.span("sweep.point", spec=spec.name):
                        result = run_spec(spec, context)
            else:
                result = run_spec(spec, context)
        artifact = {
            "spec": spec.to_payload(),
            "experiment": spec.experiment,
            "result": result,
            "metrics": registry.to_payload(),
            "elapsed_s": time.perf_counter() - start,  # repro: allow[D001]
            "created_unix": obs_metrics.timestamp_unix(),
        }
        if tracer is not None:
            artifact["obs_trace"] = tracer.to_payload()
        return artifact
    except Exception:
        return {
            "spec": spec.to_payload(),
            "experiment": spec.experiment,
            "error": traceback.format_exc(),
            "elapsed_s": time.perf_counter() - start,  # repro: allow[D001]
            "created_unix": obs_metrics.timestamp_unix(),
        }


def run_sweep(
    sweep: Sweep,
    run_dir: str | Path | None = None,
    *,
    workers: int | None = None,
    context: ExecutionContext | None = None,
    max_runs: int | None = None,
    progress: ProgressFn | None = None,
    trace: bool = False,
) -> SweepReport:
    """Execute (or resume) a sweep into a run directory.

    Args:
        sweep: the grid to run.
        run_dir: target directory; defaults to the sweep's canonical
            directory under the sweep root, which is what makes a plain
            re-run resume automatically.
        workers: sweep-level parallelism (``None`` defers to
            ``REPRO_WORKERS``).  Point results and artifacts are
            identical regardless of the worker count.
        context: execution knobs forwarded to every run (not part of
            artifact keys).
        max_runs: execute at most this many *fresh* points, then stop
            (the smoke/CI budget knob); remaining points are reported
            as ``pending``.
        progress: per-point callback (e.g. ``print``); receives one
            formatted line per completed point.
        trace: run every fresh point under a
            :class:`~repro.obs.trace.Tracer` and export its trace artifacts
            into ``<run_dir>/obs/<key>/``.  Tracing never changes
            results or artifact keys.
    """
    if max_runs is not None and max_runs < 0:
        raise ValueError("max_runs must be non-negative")
    # keying resolves every point's parameters: a bad one fails here,
    # before the run directory exists or any point runs
    keyed = [(spec, spec_key(spec)) for spec in sweep.expand()]
    context = context if context is not None else ExecutionContext()
    store = RunStore(run_dir if run_dir is not None else run_dir_for(sweep))
    store.initialise(sweep)
    say = progress if progress is not None else (lambda line: None)

    n_total = len(keyed)
    records: list[RunRecord] = []
    todo: list[tuple[ScenarioSpec, str]] = []
    for spec, key in keyed:
        if store.has_artifact(key):
            store.append_manifest(ManifestEntry(spec.name, key, "reused"))
            records.append(RunRecord(spec.name, key, "reused"))
            say(f"[{len(records)}/{n_total}] {spec.name}: reused {key[:12]}")
        else:
            todo.append((spec, key))

    pending: tuple[str, ...] = ()
    if max_runs is not None and len(todo) > max_runs:
        pending = tuple(spec.name for spec, _ in todo[max_runs:])
        todo = todo[:max_runs]

    payloads = [
        {
            "spec": spec.to_payload(),
            "context": vars(_point_context(context, key)),
            "trace": trace,
        }
        for spec, key in todo
    ]
    n_workers = resolve_workers(workers)
    with obs_metrics.summary("sweep.run").time(
        workers=n_workers, n_points=n_total
    ):
        if n_workers <= 1 or len(payloads) <= 1:
            artifacts = map(_execute_point, payloads)
        else:
            artifacts = pool_map(_execute_point, payloads, n_workers)
        for (spec, key), artifact in zip(todo, artifacts):
            elapsed = float(artifact.get("elapsed_s", 0.0))
            if "error" in artifact:
                error = str(artifact["error"])
                store.append_manifest(
                    ManifestEntry(spec.name, key, "failed", elapsed, error)
                )
                records.append(RunRecord(spec.name, key, "failed", elapsed, error))
                obs_metrics.counter("sweep.point_failed").inc()
                say(
                    f"[{len(records)}/{n_total}] {spec.name}: FAILED "
                    f"({error.strip().splitlines()[-1]})"
                )
                continue
            obs_ref: str | None = None
            trace_payload = artifact.pop("obs_trace", None)
            if trace_payload is not None:
                obs_path = store.save_obs(
                    key, trace_payload, artifact.get("metrics")
                )
                if obs_path is not None:
                    obs_ref = str(obs_path.relative_to(store.run_dir))
                    artifact["obs"] = obs_ref
            store.save_artifact(key, artifact)
            store.append_manifest(
                ManifestEntry(spec.name, key, "fresh", elapsed, obs=obs_ref)
            )
            records.append(RunRecord(spec.name, key, "fresh", elapsed))
            obs_metrics.counter("sweep.point_fresh").inc()
            say(
                f"[{len(records)}/{n_total}] {spec.name}: ok "
                f"({elapsed:.1f}s, fresh {key[:12]})"
            )

    for name in pending:
        say(f"[--/{n_total}] {name}: deferred (max-runs budget)")
    fleet = _merge_fleet_metrics(store)
    if trace and fleet is not None:
        from repro.obs.export import prometheus_text

        store.obs_dir.mkdir(parents=True, exist_ok=True)
        (store.obs_dir / "fleet_metrics.prom").write_text(
            prometheus_text(fleet)
        )
    return SweepReport(
        run_dir=store.run_dir,
        records=tuple(records),
        pending=pending,
        metrics=fleet,
    )


def _merge_fleet_metrics(store: RunStore) -> obs_metrics.MetricsRegistry | None:
    """Fold every stored artifact's registry into one fleet view.

    Reads the *store*, not this session's records, so a resumed run
    reports totals over reused points too.  Merge order is the sorted
    artifact order — deterministic, and irrelevant for everything
    except gauges (see :meth:`MetricsRegistry.merge`).
    """
    fleet: obs_metrics.MetricsRegistry | None = None
    for artifact in store.artifacts():
        payload = artifact.get("metrics")
        if not payload:
            continue
        if fleet is None:
            fleet = obs_metrics.MetricsRegistry()
        fleet.merge(obs_metrics.MetricsRegistry.from_payload(payload))
    return fleet


def resume_sweep(
    run_dir: str | Path,
    *,
    workers: int | None = None,
    context: ExecutionContext | None = None,
    max_runs: int | None = None,
    progress: ProgressFn | None = None,
    trace: bool = False,
) -> SweepReport:
    """Continue a killed or budget-capped run from its directory.

    Reads the pinned sweep definition back and re-enters
    :func:`run_sweep`: completed artifacts are reused, missing or
    code-invalidated points run fresh.
    """
    store = RunStore(run_dir)
    if not store.exists():
        raise FileNotFoundError(f"no sweep run at {store.run_dir}")
    return run_sweep(
        store.load_sweep(),
        store.run_dir,
        workers=workers,
        context=context,
        max_runs=max_runs,
        progress=progress,
        trace=trace,
    )
