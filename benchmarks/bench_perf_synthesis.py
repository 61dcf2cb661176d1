"""Micro-benchmark for the performance layer: synthesis + LP hot paths.

Times four synthesis variants (cold vs. warm-cached, serial vs.
parallel) and the two-phase Theorem-1 LP, then writes the aggregate
timer report to ``BENCH.json`` (override the location with
``REPRO_BENCH_JSON``) so the perf trajectory is tracked PR-over-PR.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_perf_synthesis.py -q -s
"""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.net.demands import gravity_demands
from repro.net.topologies import abilene
from repro.obs import metrics
from repro.te.lp import MultiCommodityLp
from repro.telemetry import cache as summary_cache
from repro.telemetry.dataset import BackboneConfig, BackboneDataset

#: Where the report lands: env override, else the repository root.
BENCH_JSON = Path(
    os.environ.get("REPRO_BENCH_JSON", Path(__file__).resolve().parents[1] / "BENCH.json")
)


def _bench_config() -> BackboneConfig:
    if os.environ.get("REPRO_BENCH_SCALE", "").lower() == "full":
        return BackboneConfig()  # 55 cables x 2.5 years
    return BackboneConfig(n_cables=8, years=0.5, seed=2017)


def test_perf_synthesis_and_lp(tmp_path, monkeypatch):
    monkeypatch.setenv(summary_cache.CACHE_DIR_ENV, str(tmp_path / "cache"))
    monkeypatch.delenv(summary_cache.NO_CACHE_ENV, raising=False)
    reg = metrics.current()
    reg.reset()

    dataset = BackboneDataset(_bench_config())
    n_links = dataset.n_links()

    # cold: cache miss -> full synthesis + store
    with metrics.summary("bench.synthesis.cold").time(n_links=n_links):
        cold = dataset.summaries()
    # warm: pure cache hit
    with metrics.summary("bench.synthesis.warm").time(n_links=n_links):
        warm = dataset.summaries()
    assert warm == cold
    assert reg.counter_value("synthesis.cache_hit") == 1
    # the warm run must not have re-entered the synthesis path
    assert reg.get_summary("synthesis.summaries").count == 1

    with metrics.summary("bench.synthesis.serial").time(n_links=n_links):
        serial = dataset.summaries(cache=False, workers=1)
    workers = max(os.cpu_count() or 1, 2)
    with metrics.summary("bench.synthesis.parallel").time(workers=workers):
        parallel = dataset.summaries(cache=False, workers=workers)
    assert parallel == serial == cold

    # LP solve path: the two-phase Theorem-1 program on a mid-size WAN
    topo = abilene()
    demands = gravity_demands(topo, 5000.0, np.random.default_rng(0))
    lp = MultiCommodityLp(topo, demands)
    with metrics.summary("bench.lp.min_penalty_at_max_throughput").time(
        n_demands=lp.n_demands,
        n_links=lp.n_links,
    ):
        outcome = lp.min_penalty_at_max_throughput()
    assert outcome.solution.is_valid()
    # memoization: one conservation + one capacity assembly across both phases
    assert reg.get_summary("lp.assemble.conservation").count == 1
    assert reg.get_summary("lp.assemble.capacity").count == 1

    path = metrics.write_bench(
        BENCH_JSON,
        extra={
            "workload": {
                "n_cables": dataset.config.n_cables,
                "years": dataset.config.years,
                "n_links": n_links,
                "lp_n_demands": lp.n_demands,
                "lp_n_links": lp.n_links,
                "parallel_workers": workers,
            }
        },
    )
    report = metrics.collect()
    print(f"\nwrote {path}")
    for name, stat in report["timers"].items():
        if name.startswith("bench."):
            print(f"  {name}: {stat['total_s']:.3f} s")

    speedup = (
        report["timers"]["bench.synthesis.cold"]["total_s"]
        / max(report["timers"]["bench.synthesis.warm"]["total_s"], 1e-9)
    )
    print(f"  cache speedup (cold/warm): {speedup:,.0f}x")
    assert speedup > 2.0  # a cache hit must beat re-synthesis comfortably


if __name__ == "__main__":
    pytest.main([__file__, "-q", "-s"])
