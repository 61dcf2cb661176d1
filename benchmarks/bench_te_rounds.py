"""Micro-benchmark for the incremental TE layer (repro.te.incremental).

Times three per-round solve regimes on a mid-size WAN:

* ``bench.te.round_cold`` — a fresh ``MultiCommodityLp`` assembled and
  solved from scratch every round (the pre-cache behaviour);
* ``bench.te.round_warm`` — one :class:`~repro.te.incremental.TeSolveCache` across
  rounds with capacities changing every round: structure hit, memo miss
  (RHS update + solve, no reassembly);
* ``bench.te.round_memo`` — the same network state round after round:
  pure memo hits replaying the stored solution vector.

Then replays a stable-SNR controller scenario to measure how many
rounds never reach HiGHS (a reused round or a memo hit), and checks a
cache-on vs. cache-off replay agree exactly.
The aggregate timer report lands in ``BENCH.json`` (override with
``REPRO_BENCH_JSON``) alongside the synthesis bench's timers when both
files run in one pytest invocation.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_te_rounds.py -q -s
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.controller import DynamicCapacityController
from repro.net.demands import gravity_demands
from repro.net.topologies import abilene, line_topology
from repro.obs import metrics
from repro.seeds import component_rng
from repro.sim.replay import replay_controller
from repro.te.incremental import TeSolveCache
from repro.te.lp import MultiCommodityLp
from repro.telemetry.timebase import Timebase
from repro.telemetry.traces import NoiseModel, synthesize_cable_traces

#: Where the report lands: env override, else the repository root.
BENCH_JSON = Path(
    os.environ.get("REPRO_BENCH_JSON", Path(__file__).resolve().parents[1] / "BENCH.json")
)

N_ROUNDS = 6
METHOD = "min_penalty_at_max_throughput"


def _round_topologies():
    """One topology per round, same structure, capacities drifting."""
    base = abilene()
    rounds = []
    for i in range(N_ROUNDS):
        topo = base.copy(name=f"round{i}")
        for j, link in enumerate(topo.real_links()):
            scale = 1.0 - 0.05 * ((i + j) % 4)
            topo.replace_link(link.link_id, capacity_gbps=link.capacity_gbps * scale)
        rounds.append(topo)
    return rounds


def test_te_round_regimes():
    rounds = _round_topologies()
    demands = gravity_demands(rounds[0], 5000.0, np.random.default_rng(0))
    reg = metrics.current()

    # cold: assemble + solve from scratch every round
    cold = []
    for topo in rounds:
        with metrics.summary("bench.te.round_cold").time():
            cold.append(getattr(MultiCommodityLp(topo, demands), METHOD)())

    # warm: structure reuse, memo miss (capacities differ every round)
    cache = TeSolveCache()
    hits0 = reg.counter_value("te.cache.structure_hit")
    warm = []
    for topo in rounds:
        with metrics.summary("bench.te.round_warm").time():
            warm.append(cache.solve(topo, demands, method=METHOD))
    assert reg.counter_value("te.cache.structure_hit") - hits0 == N_ROUNDS - 1

    # the cached solves must match the cold ones exactly
    for a, b in zip(cold, warm):
        assert a.objective_value == b.objective_value
        assert a.solution.assignments == b.solution.assignments

    # memo: the same state round after round -> replay, no solve
    memo_hits0 = reg.counter_value("te.cache.memo_hit")
    memo = []
    for _ in range(N_ROUNDS):
        with metrics.summary("bench.te.round_memo").time():
            memo.append(cache.solve(rounds[0], demands, method=METHOD))
    assert reg.counter_value("te.cache.memo_hit") - memo_hits0 == N_ROUNDS
    for outcome in memo:
        assert outcome.objective_value == cold[0].objective_value
        assert outcome.solution.assignments == cold[0].solution.assignments

    cold_mean = reg.get_summary("bench.te.round_cold").mean_s
    warm_mean = reg.get_summary("bench.te.round_warm").mean_s
    memo_mean = reg.get_summary("bench.te.round_memo").mean_s
    print(
        f"\n  cold {1e3 * cold_mean:.2f} ms  warm {1e3 * warm_mean:.2f} ms  "
        f"memo {1e3 * memo_mean:.3f} ms  "
        f"(memo speedup {cold_mean / max(memo_mean, 1e-9):,.0f}x)"
    )
    # a memo hit replays a stored vector; it must crush a full solve
    assert cold_mean / max(memo_mean, 1e-9) >= 10.0


def _stable_replay(te_cache: bool):
    topology = line_topology(3)
    link_ids = [l.link_id for l in topology.real_links()]
    timebase = Timebase.from_duration(days=3.0)
    traces = synthesize_cable_traces(
        "bench-cable",
        np.full(len(link_ids), 15.0),
        timebase,
        [],
        {},
        NoiseModel(sigma_db=0.05, wander_amplitude_db=0.0),
        component_rng(7, "bench.te.cable"),
    )
    demands = gravity_demands(
        topology, 300.0, component_rng(7, "bench.te.demands")
    )
    return replay_controller(
        DynamicCapacityController(topology, seed=7),
        dict(zip(link_ids, traces)),
        demands,
        te_interval_s=4 * 3600.0,
        te_cache=te_cache,
    )


def test_te_replay_hit_rate_and_equivalence():
    with metrics.isolated() as reg:
        cached = _stable_replay(te_cache=True)
        round_hits = int(reg.counter_value("te.cache.round_hit"))
        rounds = round_hits + int(reg.counter_value("te.cache.round_miss"))
        hits = int(reg.counter_value("te.cache.memo_hit"))
        misses = int(reg.counter_value("te.cache.memo_miss"))
    # a reused round skips the TE call, so the memo sees only the rounds
    # whose inputs were new; a round reaches HiGHS only on a memo miss
    assert rounds == cached.n_rounds == round_hits + hits + misses
    rate = (round_hits + hits) / rounds if rounds else 0.0
    uncached = _stable_replay(te_cache=False)

    # byte-identical series either way
    assert np.array_equal(cached.throughput_gbps, uncached.throughput_gbps)
    assert np.array_equal(cached.downtime_s, uncached.downtime_s)
    assert cached.total_capacity_changes == uncached.total_capacity_changes

    print(
        f"\n  replay rounds: {rounds}, {round_hits} reused, memo {hits} hits / "
        f"{misses} misses (never solved: {rate:.2f})"
    )
    # a stable-SNR replay re-solves an unchanged network almost every
    # round; round reuse and the memo must absorb most of them, and
    # most rounds must not reach the TE call at all
    assert rate > 0.5
    assert round_hits > rounds / 2

    # surface the realistic hit rate in BENCH.json: a ratio is a gauge,
    # not a timer
    metrics.counter("bench.te.replay.round_hit").inc(round_hits)
    metrics.counter("bench.te.replay.memo_hit").inc(hits)
    metrics.counter("bench.te.replay.memo_miss").inc(misses)
    metrics.gauge("bench.te.replay.hit_rate").set(rate)


def test_write_bench_report():
    lp = MultiCommodityLp(abilene(), gravity_demands(
        abilene(), 5000.0, np.random.default_rng(0)
    ))
    path = metrics.write_bench(
        BENCH_JSON,
        extra={
            "te_workload": {
                "n_rounds": N_ROUNDS,
                "method": METHOD,
                "lp_n_demands": lp.n_demands,
                "lp_n_links": lp.n_links,
            }
        },
    )
    print(f"\nwrote {path}")
    report = json.loads(path.read_text())
    assert "bench.te.replay.hit_rate" in report["gauges"]
    assert "bench.te.replay.hit_rate" not in report["timers"]


if __name__ == "__main__":
    pytest.main([__file__, "-q", "-s"])
