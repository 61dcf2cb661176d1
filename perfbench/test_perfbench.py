"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


class Clock:
    """A hand-advanced stand-in for ``perf_counter``."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class Synthetic:
    """outer -> inner (twice) -> leaf, each advancing the clock."""

    clock = Clock()

    def outer(self) -> str:
        self.clock.now += 1.0
        self.inner()
        self.clock.now += 0.5
        self.inner()
        return "done"

    def inner(self) -> None:
        self.clock.now += 2.0
        self.leaf()

    def leaf(self) -> None:
        self.clock.now += 0.25


SYNTHETIC_LAYERS = (
    layers.Layer("outer", f"{__name__}:Synthetic.outer"),
    layers.Layer("inner", f"{__name__}:Synthetic.inner"),
    layers.Layer("leaf", f"{__name__}:Synthetic.leaf", timed=False),
)


def test_self_time_of_a_nested_call(monkeypatch):
    monkeypatch.setattr(layers, "perf_counter", Synthetic.clock)
    with layers.LayerTracer(SYNTHETIC_LAYERS) as tracer:
        assert Synthetic().outer() == "done"
    # outer's own 1.0 + 0.5; inner's 2.0 twice, plus the count-only leaf
    assert tracer.self_s["outer"] == pytest.approx(1.5)
    assert tracer.self_s["inner"] == pytest.approx(4.5)
    assert "leaf" not in tracer.self_s
    assert sum(tracer.self_s.values()) == pytest.approx(Synthetic.clock.now)
    assert tracer.calls[f"{__name__}:Synthetic.leaf"] == 2
    assert tracer.layer_calls("inner") == 2
    assert tracer.nested[(f"{__name__}:Synthetic.outer", "inner")] == 1
    assert tracer.hit_ratio(f"{__name__}:Synthetic.outer", "inner") == 0.0
    assert tracer.hit_ratio(f"{__name__}:Synthetic.inner", "outer") == 1.0


def _originals() -> dict[str, object]:
    found = {}
    for layer in layers.LAYERS:
        owner, attr = layers.resolve(layer.target)
        found[layer.target] = vars(owner)[attr]
    return found


def test_traced_run_restores_every_attribute(tmp_path):
    before = _originals()
    workload = workloads.build("whatif-plant-tickets", 0, tmp_path)
    with layers.LayerTracer() as tracer:
        during = _originals()
        workload.episode(0)
    assert all(during[target] is not before[target] for target in before)
    assert tracer.layer_calls("te.lp.highs") > 0
    after = _originals()
    assert all(after[target] is before[target] for target in before)

    with pytest.raises(RuntimeError):
        with layers.LayerTracer():
            raise RuntimeError("fails inside the traced block")
    after_error = _originals()
    assert all(after_error[target] is before[target] for target in before)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_short_run_emits_every_metric(name, trace):
    record = run.run_workload(name, 0, 0.01, trace, setup_repeats=1)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {m: unit for m, (_, unit) in record["metrics"].items()} == declared
    assert all(record["checks"].values()), record["checks"]
    assert record["error_rate"] == 0
    assert record["attempted"] > 0
    result = json.loads(run.report(record).splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True


def test_op_times_scale_by_each_episodes_host_slowness():
    fast = workloads.Episode([0.001, 0.002, 0.003], 0.006, 0, "", slowness=1.0)
    slow = workloads.Episode([0.002, 0.004, 0.006], 0.012, 0, "", slowness=2.0)
    # the slow episode ran the same ops at half speed: scaled, they agree
    assert run.per_op_s([fast, slow]) == pytest.approx(0.002)
    assert run.per_op_s([fast, slow], scaled=False) == pytest.approx(0.003)
    assert run.episode_quantile_ms([fast, slow], 5) == pytest.approx(2.0)
    assert run.episode_quantile_ms([fast, slow], 5, scaled=False) == pytest.approx(3.0)


def test_wrong_reference_digest_fails_every_op():
    record = run.run_workload(
        "whatif-plant-tickets", 0, 0.01, False, reference="0" * 64, setup_repeats=1
    )
    assert not record["checks"]["matches_reference"]
    assert record["error_rate"] == 1
    assert record["failed"] == record["attempted"] > 0
