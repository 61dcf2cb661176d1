"""The incremental TE layer: reuse, memoization, invalidation, gating.

The contract under test is strict: every cached answer must be
*bit-identical* to a fresh ``MultiCommodityLp`` solve, and every input
change — capacities, topology structure, demand set — must invalidate
exactly the right layer (memo vs. structure) of the cache.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller import DynamicCapacityController, default_te_algorithm
from repro.core.policies import run_policy
from repro.faults.spec import FaultPlan, FaultSpec
from repro.net.demands import Demand, gravity_demands
from repro.net.srlg import duplex_srlgs, fail_cable
from repro.net.topologies import abilene, figure7_topology, line_topology
from repro.obs import metrics
from repro.optics.impairments import AmplifierDegradation
from repro.sim.replay import replay_controller
from repro.state.model import NetworkState
from repro.te.incremental import (
    SOLVE_METHODS,
    CachedTeAlgorithm,
    TeSolveCache,
    batch_throughput,
    solve_throughput,
)
from repro.te.lp import MultiCommodityLp
from repro.telemetry.timebase import Timebase
from repro.telemetry.traces import NoiseModel, synthesize_cable_traces


def _wan():
    return abilene()


def _demands(topology, volume=5000.0, seed=0):
    return gravity_demands(topology, volume, np.random.default_rng(seed))


def _scaled(topology, factor):
    """Same structure, different capacities."""
    out = topology.copy()
    for link in out.real_links():
        out.replace_link(link.link_id, capacity_gbps=link.capacity_gbps * factor)
    return out


def _assert_identical(a, b):
    assert a.objective_value == b.objective_value
    assert a.status == b.status
    assert a.solution.assignments == b.solution.assignments


class TestMemoization:
    def test_memo_hit_is_bit_identical(self):
        topo, demands = _wan(), _demands(_wan())
        cache = TeSolveCache()
        with metrics.isolated() as reg:
            first = cache.solve(topo, demands)
            second = cache.solve(topo, demands)
        assert reg.counter_value("te.cache.memo_miss") == 1
        assert reg.counter_value("te.cache.memo_hit") == 1
        fresh = MultiCommodityLp(topo, demands).min_penalty_at_max_throughput()
        _assert_identical(first, fresh)
        _assert_identical(second, fresh)

    def test_methods_memoized_independently(self):
        topo, demands = _wan(), _demands(_wan())
        cache = TeSolveCache()
        with metrics.isolated() as reg:
            cache.solve(topo, demands, method="max_throughput")
            cache.solve(topo, demands, method="min_penalty_at_max_throughput")
        assert reg.counter_value("te.cache.memo_miss") == 2
        assert reg.counter_value("te.cache.memo_hit") == 0

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown solve method"):
            TeSolveCache().solve(_wan(), _demands(_wan()), method="simplex")
        with pytest.raises(ValueError, match="unknown solve method"):
            CachedTeAlgorithm(method="simplex")


class TestStructureReuse:
    def test_capacity_change_reuses_structure(self):
        topo, demands = _wan(), _demands(_wan())
        flapped = _scaled(topo, 0.8)
        cache = TeSolveCache()
        with metrics.isolated() as reg:
            cache.solve(topo, demands)
            warm = cache.solve(flapped, demands)
            # one assembly serves both rounds: the flap is RHS-only
            assert reg.get_summary("lp.assemble.conservation").count == 1
            assert reg.get_summary("lp.assemble.capacity").count == 1
            assert reg.counter_value("te.cache.structure_hit") == 1
            assert reg.counter_value("te.cache.memo_miss") == 2
        fresh = MultiCommodityLp(flapped, demands).min_penalty_at_max_throughput()
        _assert_identical(warm, fresh)

    def test_cable_cut_misses_structure(self):
        topo = figure7_topology()
        srlgs = duplex_srlgs(topo)
        cut = fail_cable(topo, srlgs, srlgs.cables()[0])
        demands = [Demand("A", "D", 150.0), Demand("B", "C", 80.0)]
        cache = TeSolveCache()
        with metrics.isolated() as reg:
            cache.solve(topo, demands)
            after = cache.solve(cut, demands)
            assert reg.counter_value("te.cache.structure_miss") == 2
            assert reg.counter_value("te.cache.structure_hit") == 0
        _assert_identical(
            after, MultiCommodityLp(cut, demands).min_penalty_at_max_throughput()
        )
        assert cache.n_structures == 2

    def test_demand_endpoint_change_misses_structure(self):
        topo = _wan()
        demands = _demands(topo)
        first = demands[0]
        other = next(n for n in topo.nodes if n not in (first.src, first.dst))
        moved = [replace(first, dst=other)] + demands[1:]
        cache = TeSolveCache()
        with metrics.isolated() as reg:
            cache.solve(topo, demands)
            after = cache.solve(topo, moved)
            assert reg.counter_value("te.cache.structure_miss") == 2
            assert reg.counter_value("te.cache.structure_hit") == 0
        _assert_identical(
            after, MultiCommodityLp(topo, moved).min_penalty_at_max_throughput()
        )

    def test_volume_change_hits_structure(self):
        topo = _wan()
        demands = _demands(topo, seed=0)
        # same pairs in the same order, every volume moved (some saturate)
        factors = (0.25, 3.0, 0.5, 7.0)
        rescaled = [
            replace(d, volume_gbps=d.volume_gbps * factors[i % len(factors)])
            for i, d in enumerate(demands)
        ]
        cache = TeSolveCache()
        with metrics.isolated() as reg:
            for method in SOLVE_METHODS:
                cache.solve(topo, demands, method)
            for method in SOLVE_METHODS:
                warm = cache.solve(topo, rescaled, method)
                fresh = getattr(MultiCommodityLp(topo, rescaled), method)()
                _assert_identical(warm, fresh)
                assert np.array_equal(warm.x, fresh.x)
            assert reg.counter_value("te.cache.structure_miss") == 1
            assert reg.counter_value("te.cache.memo_hit") == 0
        assert cache.n_structures == 1

    def test_lru_eviction_keeps_answers_exact(self):
        small = TeSolveCache(memo_size=1, structure_size=1)
        t_a, t_b = line_topology(3), line_topology(4)
        d_a, d_b = _demands(t_a, 300.0), _demands(t_b, 300.0)
        for _ in range(3):  # oscillate; every round evicts the other
            a = small.solve(t_a, d_a)
            b = small.solve(t_b, d_b)
            assert small.n_structures == 1
            assert small.n_memo_entries == 1
        _assert_identical(
            a, MultiCommodityLp(t_a, d_a).min_penalty_at_max_throughput()
        )
        _assert_identical(
            b, MultiCommodityLp(t_b, d_b).min_penalty_at_max_throughput()
        )


class TestGating:
    def test_controller_wrapping_follows_gate(self):
        topo = line_topology(3)
        assert isinstance(
            DynamicCapacityController(topo).te_algorithm, CachedTeAlgorithm
        )
        controller = DynamicCapacityController(topo)
        controller.configure_te_cache(False)
        assert controller.te_algorithm is default_te_algorithm

    @pytest.mark.parametrize("env", [False, True], ids=["env-unset", "env-set"])
    def test_none_selects_the_cache(self, env, monkeypatch):
        # te_cache=None is what every timed benchmark episode passes: it
        # must go through the cache, and the retired env vars must not
        # switch it off
        from tests.golden.scenarios import SCENARIOS

        for name in ("REPRO_TE_NO_CACHE", "REPRO_NO_CACHE"):
            if env:
                monkeypatch.setenv(name, "1")
            else:
                monkeypatch.delenv(name, raising=False)
        topo = line_topology(3)
        entry_points = {
            "replay_controller": lambda: SCENARIOS["replay"](te_cache=None),
            "replay_tickets": lambda: SCENARIOS["whatif"](te_cache=None, workers=1),
            "cable_event_impacts": lambda: SCENARIOS["network_availability"](
                te_cache=None, workers=1
            ),
            "batch_throughput": lambda: batch_throughput(
                [topo], _demands(topo, 300.0), workers=1, te_cache=None
            ),
        }
        for name, call in entry_points.items():
            with metrics.isolated() as reg:
                call()
            lookups = reg.counter_value("te.cache.memo_hit") + reg.counter_value(
                "te.cache.memo_miss"
            )
            assert lookups > 0, f"{name}(te_cache=None) bypassed the TE cache"

    def test_custom_te_algorithm_never_wrapped(self):
        def my_te(topology, demands):
            return default_te_algorithm(topology, demands)

        controller = DynamicCapacityController(line_topology(3), te_algorithm=my_te)
        assert controller.te_algorithm is my_te
        controller.configure_te_cache(True)
        assert controller.te_algorithm is my_te


def _dip_replay(te_cache, *, dip_db, faults=None):
    """A 3-node replay whose mid-run dip can force a link dark."""
    topology = line_topology(3)
    link_ids = [l.link_id for l in topology.real_links()]
    timebase = Timebase.from_duration(days=2.0)
    traces = synthesize_cable_traces(
        "cut-cable",
        np.full(len(link_ids), 16.0),
        timebase,
        [AmplifierDegradation(86_400.0, 6 * 3600.0, dip_db)],
        {},
        NoiseModel(sigma_db=0.05, wander_amplitude_db=0.0),
        np.random.default_rng(3),
    )
    demands = gravity_demands(topology, 500.0, np.random.default_rng(4))
    controller = DynamicCapacityController(topology, policy=run_policy(), seed=0)
    return replay_controller(
        controller,
        dict(zip(link_ids, traces)),
        demands,
        te_interval_s=6 * 3600.0,
        te_cache=te_cache,
        faults=faults,
    )


def _assert_replays_identical(a, b):
    assert np.array_equal(a.times_s, b.times_s)
    assert np.array_equal(a.throughput_gbps, b.throughput_gbps)
    assert np.array_equal(a.downtime_s, b.downtime_s)
    assert np.array_equal(a.n_failed, b.n_failed)
    for ra, rb in zip(a.reports, b.reports):
        assert ra.solution.assignments == rb.solution.assignments
        assert ra.upgrades == rb.upgrades
        assert ra.downgrades == rb.downgrades


class TestInvalidationUnderReplay:
    def test_dark_link_misses_structure_and_matches_uncached(self):
        # a 14 dB dip from a 16 dB baseline is below every rung: the
        # link goes dark mid-run and the working topology loses an edge
        with metrics.isolated() as reg:
            cached = _dip_replay(True, dip_db=14.0)
            # at least: first round, dark round, recovery round
            assert reg.counter_value("te.cache.structure_miss") >= 3
            assert reg.counter_value("te.cache.memo_hit") > 0
        uncached = _dip_replay(False, dip_db=14.0)
        assert np.any(uncached.n_failed > 0)  # the cut really happened
        _assert_replays_identical(cached, uncached)

    def test_fault_injected_run_matches_uncached(self):
        # forced BVT power cycles dark links through the fault layer;
        # the cache must track those topology changes too
        link = line_topology(3).real_links()[0].link_id
        plan = FaultPlan(
            specs=(
                FaultSpec("bvt.power_cycle", probability=1.0, links=(link,)),
            ),
            seed=11,
        )
        cached = _dip_replay(True, dip_db=9.0, faults=plan)
        uncached = _dip_replay(False, dip_db=9.0, faults=plan)
        _assert_replays_identical(cached, uncached)


class TestBatchedWhatIf:
    def test_worker_and_cache_knobs_do_not_change_values(self):
        topo = figure7_topology()
        srlgs = duplex_srlgs(topo)
        demands = [Demand("A", "D", 150.0), Demand("B", "C", 80.0)]
        scenarios = [topo] + [
            fail_cable(topo, srlgs, cable) for cable in srlgs.cables()[:3]
        ]
        serial = batch_throughput(scenarios, demands, workers=1, te_cache=False)
        assert serial == batch_throughput(scenarios, demands, workers=1)
        assert serial == batch_throughput(scenarios, demands, workers=2)
        assert serial == [
            MultiCommodityLp(s, demands).max_throughput().objective_value
            for s in scenarios
        ]


_FORK_BASES = {
    "plant": NetworkState.from_topology(figure7_topology(), label="base"),
    "abilene": NetworkState.from_topology(abilene(), label="base"),
}


@st.composite
def scenario_forks(draw):
    """A dark/flap fork of the plant or Abilene, with gravity demands."""
    name = draw(st.sampled_from(sorted(_FORK_BASES)))
    state = _FORK_BASES[name]
    srlgs = duplex_srlgs(state.base)
    cables = draw(
        st.lists(st.sampled_from(srlgs.cables()), min_size=1, max_size=2, unique=True)
    )
    for cable in cables:
        links = sorted(srlgs.links_of(cable))
        if draw(st.booleans()):
            state = state.darken(links, label=f"fail:{cable}")
        else:
            floor = draw(st.sampled_from([10.0, 50.0, 75.0]))
            state = state.flap(links, floor, label=f"degrade:{cable}")
    demands = gravity_demands(
        state.base,
        draw(st.sampled_from([150.0, 300.0, 3000.0])),
        np.random.default_rng(draw(st.integers(0, 2**16))),
        sparsity=0.0 if name == "plant" else 0.8,
    )
    return state, demands


@settings(max_examples=15, deadline=None)
@given(fork=scenario_forks())
def test_value_path_is_bit_identical_to_a_full_solve(fork):
    """The value path (:meth:`TeSolveCache.throughput`, and
    :func:`solve_throughput` cached or not) returns the value and the
    vector bytes of a fresh max-throughput solve, and shares its memo
    entries with :meth:`TeSolveCache.solve` in either order."""
    state, demands = fork
    topology = state.to_topology()
    fresh = MultiCommodityLp(topology, demands).max_throughput()

    def assert_fresh(value, x):
        assert value.hex() == fresh.objective_value.hex()
        assert x.tobytes() == fresh.x.tobytes()

    def assert_fresh_outcome(outcome):
        assert_fresh(outcome.objective_value, outcome.x)
        assert outcome.solution.assignments == fresh.solution.assignments

    # a full solve, then the value path: a memo hit
    cache = TeSolveCache()
    with metrics.isolated() as reg:
        assert_fresh_outcome(
            cache.solve(topology, demands, "max_throughput", state=state)
        )
        assert_fresh(*cache.throughput(state, demands))
    assert reg.counter_value("te.cache.memo_hit") == 1

    # the value path, then a full solve: a memo hit replayed through
    # the extraction
    cache = TeSolveCache()
    with metrics.isolated() as reg:
        assert_fresh(*cache.throughput(state, demands))
        assert_fresh_outcome(
            cache.solve(topology, demands, "max_throughput", state=state)
        )
    assert reg.counter_value("te.cache.memo_hit") == 1

    # a structure hit: the state's capacities and the volumes bound into
    # a model assembled for other numbers on the same wiring
    primer = state.evolve(
        {
            link.link_id: {"capacity_gbps": 2 * link.capacity_gbps}
            for link in state.live_links()
        },
        label="primer",
    )
    halved = [replace(d, volume_gbps=d.volume_gbps / 2) for d in demands]
    cache = TeSolveCache()
    with metrics.isolated() as reg:
        cache.throughput(primer, halved)
        assert_fresh(*cache.throughput(state, demands))
    assert reg.counter_value("te.cache.structure_hit") == 1
    assert reg.counter_value("te.cache.memo_hit") == 0

    assert_fresh(*solve_throughput(state, demands, te_cache=False))
    assert_fresh(*solve_throughput(topology, demands, te_cache=False))
