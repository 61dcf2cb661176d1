"""Shared fixtures for the per-figure benchmark harness.

The measurement-study benches share one synthetic backbone.  The
default is a reduced-scale corpus (~900 links x 1.5 years) so the whole
harness runs in minutes; set ``REPRO_BENCH_SCALE=full`` for the paper's
full ~2,000 links x 2.5 years.

Synthesis goes through the performance layer: ``REPRO_WORKERS=N``
parallelises cable synthesis, and warm runs hit the on-disk summary
cache (``REPRO_CACHE_DIR``, disable with ``REPRO_NO_CACHE=1``) and skip
synthesis entirely — the fixture prints which path was taken, backed by
the :mod:`repro.obs.metrics` counters and summaries.
"""

import os

import pytest

from repro.obs import metrics
from repro.telemetry.dataset import BackboneConfig, BackboneDataset


def bench_backbone_config() -> BackboneConfig:
    if os.environ.get("REPRO_BENCH_SCALE", "").lower() == "full":
        return BackboneConfig()  # 55 cables x 2.5 years
    return BackboneConfig(n_cables=24, years=1.5, seed=2017)


@pytest.fixture(scope="session")
def backbone_dataset():
    return BackboneDataset(bench_backbone_config())


@pytest.fixture(scope="session")
def backbone_summaries(backbone_dataset):
    reg = metrics.current()
    hits_before = reg.counter_value("synthesis.cache_hit")
    summaries = backbone_dataset.summaries()
    if reg.counter_value("synthesis.cache_hit") > hits_before:
        print("\n[conftest] warm summary cache: synthesis skipped")
    else:
        stat = reg.get_summary("synthesis.summaries")
        print(f"\n[conftest] cold synthesis: {stat.total_s:.1f} s "
              f"(workers={stat.meta.get('workers')})")
    return summaries
