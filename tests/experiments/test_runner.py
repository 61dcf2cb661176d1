"""Tests for the resumable sweep runner."""

import pytest

from repro.experiments.registry import spec_key
from repro.experiments.runner import resume_sweep, run_sweep
from repro.experiments.spec import Sweep
from repro.experiments.store import RunStore


def quick_sweep():
    # theorem is the cheapest registered experiment (no telemetry synthesis)
    return Sweep.create("t", "theorem", params={"nodes": 5}, axes={"seed": [3, 4]})


class TestRunSweep:
    def test_fresh_run_executes_every_point(self, tmp_path):
        report = run_sweep(quick_sweep(), tmp_path / "run", workers=1)
        assert report.n_fresh == 2
        assert report.n_reused == report.n_failed == 0
        assert report.complete

    def test_artifacts_keyed_by_spec_key(self, tmp_path):
        run_sweep(quick_sweep(), tmp_path / "run", workers=1)
        store = RunStore(tmp_path / "run")
        for spec in quick_sweep().expand():
            artifact = store.load_artifact(spec_key(spec))
            assert artifact is not None
            assert artifact["result"]["holds"] is True
            assert artifact["spec"]["name"] == spec.name

    def test_rerun_reuses_everything(self, tmp_path):
        run_sweep(quick_sweep(), tmp_path / "run", workers=1)
        report = run_sweep(quick_sweep(), tmp_path / "run", workers=1)
        assert report.n_fresh == 0
        assert report.n_reused == 2

    def test_artifact_carries_isolated_perf_report(self, tmp_path):
        from repro.obs import metrics

        with metrics.isolated():  # outer noise must not leak into artifacts
            metrics.summary("outer.noise").add(1.0)
            run_sweep(quick_sweep(), tmp_path / "run", workers=1)
        store = RunStore(tmp_path / "run")
        for artifact in store.artifacts():
            registry = metrics.MetricsRegistry.from_payload(artifact["metrics"])
            assert "outer.noise" not in registry.summaries()

    def test_max_runs_defers_the_rest(self, tmp_path):
        report = run_sweep(
            quick_sweep(), tmp_path / "run", workers=1, max_runs=1
        )
        assert report.n_fresh == 1
        assert len(report.pending) == 1
        assert not report.complete

    def test_resume_after_max_runs_finishes(self, tmp_path):
        run_sweep(quick_sweep(), tmp_path / "run", workers=1, max_runs=1)
        report = resume_sweep(tmp_path / "run", workers=1)
        assert report.n_reused == 1
        assert report.n_fresh == 1
        assert report.complete
        # the manifest journal shows the whole history
        statuses = [e["status"] for e in RunStore(tmp_path / "run").manifest()]
        assert statuses.count("fresh") == 2
        assert statuses.count("reused") == 1

    def test_negative_max_runs_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_sweep(quick_sweep(), tmp_path / "run", max_runs=-1)

    def test_progress_lines_streamed(self, tmp_path):
        lines = []
        run_sweep(quick_sweep(), tmp_path / "run", workers=1,
                  progress=lines.append)
        assert len(lines) == 2
        assert all("ok" in line for line in lines)

    def test_bad_choice_fails_before_any_point_runs(self, tmp_path):
        sweep = Sweep.create(
            "r", "reactive", params={"mode": "bogus"}, axes={"seed": [1, 2]}
        )
        with pytest.raises(ValueError, match="'scheduled', 'reactive', 'proactive'"):
            run_sweep(sweep, tmp_path / "run", workers=1)
        assert not (tmp_path / "run").exists()

    def test_failed_point_does_not_abort_sweep(self, tmp_path):
        # nodes=1 makes random_wan/theorem blow up; the other point runs
        sweep = Sweep.create("t", "theorem", axes={"nodes": [1, 5]})
        report = run_sweep(sweep, tmp_path / "run", workers=1)
        assert report.n_failed == 1
        assert report.n_fresh == 1
        assert not report.complete
        failed = [e for e in RunStore(tmp_path / "run").manifest()
                  if e["status"] == "failed"]
        assert len(failed) == 1 and failed[0]["error"]

    def test_failed_point_retried_on_resume(self, tmp_path):
        sweep = Sweep.create("t", "theorem", axes={"nodes": [1, 5]})
        run_sweep(sweep, tmp_path / "run", workers=1)
        report = resume_sweep(tmp_path / "run", workers=1)
        # no artifact was stored for the failure => tried again
        assert report.n_failed == 1
        assert report.n_reused == 1

    def test_parallel_results_match_serial(self, tmp_path):
        serial = run_sweep(quick_sweep(), tmp_path / "a", workers=1)
        parallel = run_sweep(quick_sweep(), tmp_path / "b", workers=2)
        assert serial.n_fresh == parallel.n_fresh == 2
        a = {x["key"]: x["result"] for x in RunStore(tmp_path / "a").artifacts()}
        b = {x["key"]: x["result"] for x in RunStore(tmp_path / "b").artifacts()}
        assert a == b

    def test_resume_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            resume_sweep(tmp_path / "ghost")


def controller_sweep():
    # reactive points exercise the instrumented controller hot path, so
    # each artifact carries non-trivial counters/histograms to merge
    return Sweep.create(
        "r", "reactive", params={"days": 0.5}, axes={"seed": [3, 4]}
    )


class TestSweepObservability:
    def test_fleet_metrics_merged_from_artifacts(self, tmp_path):
        report = run_sweep(controller_sweep(), tmp_path / "run", workers=1)
        assert report.metrics is not None
        counters = report.metrics.counters()
        assert counters["controller.rounds"] > 0
        # per-point values summed over both seeds
        store = RunStore(tmp_path / "run")
        per_point = [
            a["metrics"] for a in store.artifacts() if a.get("metrics")
        ]
        assert len(per_point) == 2

    def test_merged_counters_worker_count_invariant(self, tmp_path):
        serial = run_sweep(controller_sweep(), tmp_path / "a", workers=1)
        sharded = run_sweep(controller_sweep(), tmp_path / "b", workers=2)
        assert serial.metrics is not None and sharded.metrics is not None
        assert serial.metrics.counters() == sharded.metrics.counters()
        a = serial.metrics.histograms()["controller.reconfig_downtime_s"]
        b = sharded.metrics.histograms()["controller.reconfig_downtime_s"]
        assert (a.counts, a.inf_count, a.n) == (b.counts, b.inf_count, b.n)

    def test_fleet_metrics_cover_reused_points_on_resume(self, tmp_path):
        full = run_sweep(controller_sweep(), tmp_path / "a", workers=1)
        run_sweep(controller_sweep(), tmp_path / "b", workers=1, max_runs=1)
        resumed = resume_sweep(tmp_path / "b", workers=1)
        assert resumed.n_reused == 1 and resumed.n_fresh == 1
        # the merged view reads the store, so the reused point counts too
        assert resumed.metrics.counters() == full.metrics.counters()

    def test_traced_sweep_writes_obs_artifacts(self, tmp_path):
        report = run_sweep(
            quick_sweep(), tmp_path / "run", workers=1, trace=True
        )
        store = RunStore(tmp_path / "run")
        refs = [e.get("obs") for e in store.manifest()]
        assert all(refs) and len(refs) == report.n_fresh == 2
        for ref in refs:
            point_dir = store.run_dir / ref
            assert (point_dir / "trace.json").is_file()
            assert (point_dir / "span_tree.json").is_file()
            assert (point_dir / "events.jsonl").is_file()

    def test_untraced_sweep_writes_no_obs_dir(self, tmp_path):
        run_sweep(quick_sweep(), tmp_path / "run", workers=1)
        assert not (tmp_path / "run" / "obs").exists()

    def test_traced_point_records_sweep_span(self, tmp_path):
        import json

        run_sweep(quick_sweep(), tmp_path / "run", workers=1, trace=True)
        store = RunStore(tmp_path / "run")
        ref = store.manifest()[0]["obs"]
        tree = json.loads((store.run_dir / ref / "span_tree.json").read_text())
        assert tree[0]["name"] == "sweep.point"
