"""Round reuse: a controller round whose inputs repeat reuses its decision.

The key is exactly what augment → TE → translate read: each live real
link's ``(link_id, capacity, headroom)``, the traffic memory that
prices upgrades, and the demands.  Anything else the round does (the
fault gate, reconfiguration, accounting) runs every round regardless.
"""

import numpy as np
import pytest

import repro.core.controller as controller_module
from repro.core.controller import DynamicCapacityController, default_te_algorithm
from repro.core.policies import run_policy
from repro.net.demands import Demand, gravity_demands
from repro.net.topologies import figure7_topology
from repro.obs import metrics
from repro.obs.trace import Tracer, tracing
from repro.te.incremental import DEFAULT_MEMO_SIZE, RoundMemo, round_key

#: SNR that supports the 175 Gbps rung, above the provisioned 100 Gbps
SNR_175 = 13.0


def _setup(snr_db=SNR_175, te_cache=None, **kwargs):
    """A controller past its first round.

    Round 0 has an empty traffic memory, so every upgrade is free and
    the links that carry flow step up a rung.  From then on the
    traffic memory prices upgrades and the light traffic fits: the
    remaining headroom is offered but never taken, so no upgrade
    changes the capacities between rounds.
    """
    topo = figure7_topology()
    controller = DynamicCapacityController(
        topo, policy=run_policy(), seed=1, **kwargs
    )
    controller.configure_te_cache(te_cache)
    demands = gravity_demands(topo, 60.0, np.random.default_rng(0))
    snrs = {l.link_id: snr_db for l in topo.real_links()}
    controller.step(snrs, demands)
    return controller, snrs, demands


def _step(controller, snrs, demands):
    """One round; True when it reused an earlier round's decision."""
    with metrics.isolated() as reg:
        report = controller.step(snrs, demands)
    hits = reg.counter_value("te.cache.round_hit")
    misses = reg.counter_value("te.cache.round_miss")
    assert hits + misses == 1
    assert report.upgrades == ()
    return hits == 1


def _steady(**kwargs):
    """A controller whose next round with ``snrs`` reuses a decision."""
    controller, snrs, demands = _setup(**kwargs)
    # round 0's upgrades change the rows, and each new solution the
    # traffic memory the next round is priced with; within two more
    # rounds both repeat
    assert [_step(controller, snrs, demands) for _ in range(3)][-1]
    return controller, snrs, demands


class TestRoundKey:
    ROWS = [("a", 100.0, 75.0), ("b", 100.0, 0.0)]
    TRAFFIC = {"a": 10.0, "b": 0.0}
    DEMANDS = [Demand("A", "B", 5.0), Demand("B", "A", 3.0, priority=2)]

    def key(self, rows=ROWS, traffic=TRAFFIC, demands=DEMANDS):
        return round_key(rows, traffic, demands)

    def test_equal_inputs_give_equal_keys(self):
        assert self.key() == self.key(
            list(self.ROWS), dict(self.TRAFFIC), list(self.DEMANDS)
        )

    @pytest.mark.parametrize(
        "changed",
        [
            {"rows": [("a", 125.0, 50.0), ("b", 100.0, 0.0)]},  # capacity
            {"rows": [("a", 100.0, 100.0), ("b", 100.0, 0.0)]},  # headroom
            {"rows": [("a", 100.0, 75.0)]},  # a link went dark
            {"traffic": {"a": 10.5, "b": 0.0}},  # penalty input
            {"demands": [Demand("A", "B", 5.5), DEMANDS[1]]},  # volume
            {"demands": [Demand("A", "B", 5.0, priority=0), DEMANDS[1]]},
        ],
        ids=["capacity", "headroom", "dark-link", "traffic", "volume", "priority"],
    )
    def test_each_input_changes_the_key(self, changed):
        assert self.key(**changed) != self.key()

    def test_memo_is_bounded_lru(self):
        memo = RoundMemo(())
        for i in range(DEFAULT_MEMO_SIZE + 4):
            memo.put(i, str(i))
        assert [memo.get(i) for i in range(5)] == [None] * 4 + ["4"]
        # a hit refreshes an entry: 4 now outlives 5
        memo.put("new", "new")
        assert memo.get(5) is None
        assert memo.get(4) == "4"

    def test_scope_is_by_identity(self):
        ladder = [50.0, 100.0]
        memo = RoundMemo((ladder,))
        assert memo.serves((ladder,))
        assert not memo.serves(([50.0, 100.0],))


class TestControllerReuse:
    def test_reused_round_builds_no_graph(self, monkeypatch):
        controller, snrs, demands = _steady()

        def forbidden(*args, **kwargs):
            raise AssertionError("a reused round must not augment or translate")

        monkeypatch.setattr(controller_module, "augment_topology", forbidden)
        monkeypatch.setattr(controller_module, "translate", forbidden)
        monkeypatch.setattr(controller_module, "Topology", forbidden)
        with metrics.isolated() as reg:
            controller.step(snrs, demands)
        assert reg.counter_value("te.cache.round_hit") == 1
        assert reg.counter_value("te.cache.memo_hit") == 0
        assert reg.counter_value("te.cache.memo_miss") == 0

    def test_reused_round_equals_a_fresh_one(self):
        cached, snrs, demands = _steady()
        fresh, _, _ = _setup(te_cache=False)
        for _ in range(3):
            fresh.step(snrs, demands)
        a, b = cached.step(snrs, demands), fresh.step(snrs, demands)
        assert a.solution.assignments == b.solution.assignments
        assert a.solution.topology.links == b.solution.topology.links
        assert cached.runtime_payload() == fresh.runtime_payload()

    def test_snr_noise_within_a_rung_hits(self):
        controller, snrs, demands = _steady()
        noisy = {link: snr + 0.01 * (i % 5) for i, (link, snr) in enumerate(snrs.items())}
        assert _step(controller, noisy, demands)

    def test_changed_capacity_misses(self):
        # 100 Gbps with no headroom, then a dip to the 50 Gbps rung: only
        # the capacity of one row changes
        controller, snrs, demands = _steady(snr_db=7.0)
        victim = next(iter(snrs))
        assert not _step(controller, {**snrs, victim: 5.0}, demands)
        assert controller.state.capacity_of(victim) == 50.0

    def test_changed_headroom_misses(self):
        controller, snrs, demands = _steady()
        victim = next(iter(snrs))
        before = controller.state.capacity_of(victim)
        assert not _step(controller, {**snrs, victim: 15.0}, demands)
        assert controller.state.capacity_of(victim) == before

    def test_changed_traffic_memory_misses(self):
        controller, snrs, demands = _steady()
        other = [Demand(d.src, d.dst, 2 * d.volume_gbps, d.priority) for d in demands]
        assert not _step(controller, snrs, other)
        # back to the original demands and capacities: only the traffic
        # memory, left by the round before, differs from a stored round
        assert not _step(controller, snrs, demands)
        assert _step(controller, snrs, demands)

    def test_changed_demand_volume_misses(self):
        controller, snrs, demands = _steady()
        first, *rest = demands
        bigger = Demand(first.src, first.dst, first.volume_gbps + 1.0, first.priority)
        assert not _step(controller, snrs, [bigger, *rest])

    def test_changed_demand_priority_misses(self):
        controller, snrs, demands = _steady()
        first, *rest = demands
        urgent = Demand(first.src, first.dst, first.volume_gbps, priority=0)
        assert not _step(controller, snrs, [urgent, *rest])

    def test_round_after_a_fallback_computes_afresh(self):
        class FailFirstSolve:
            def __init__(self):
                self.calls = 0

            def bvt_verdict(self, link_id):
                return None

            def te_fails(self):
                self.calls += 1
                return self.calls == 1

        controller, snrs, demands = _setup()
        controller.bind_faults(FailFirstSolve())
        assert controller.step(snrs, demands).te_fallback
        # the same inputs again (a fallback keeps the traffic memory):
        # nothing was stored, so the round computes
        with metrics.isolated() as reg:
            report = controller.step(snrs, demands)
        assert not report.te_fallback
        assert reg.counter_value("te.cache.round_miss") == 1
        assert reg.counter_value("te.cache.memo_miss") == 1

    def test_te_span_marks_a_reused_round(self):
        controller, snrs, demands = _steady()
        tracer = Tracer()
        with tracing(tracer):
            controller.step(snrs, demands)
        (solve,) = [s for s in tracer.spans if s.name == "te.solve"]
        assert solve.attrs["reused"] is True
        assert solve.attrs["ok"] is True
        # the span reports G', as a computed round's does
        assert solve.attrs["n_links"] == 16


class TestScope:
    def test_uncached_and_custom_te_never_reuse(self):
        def my_te(topology, demands):
            return default_te_algorithm(topology, demands)

        for kwargs in ({"te_cache": False}, {"te_algorithm": my_te}):
            controller, snrs, demands = _setup(**kwargs)
            with metrics.isolated() as reg:
                for _ in range(4):
                    controller.step(snrs, demands)
            assert reg.counter_value("te.cache.round_hit") == 0
            assert reg.counter_value("te.cache.round_miss") == 0

    def test_toggling_the_cache_drops_the_memo(self):
        controller, snrs, demands = _steady()
        controller.configure_te_cache(False)
        controller.configure_te_cache(True)
        assert not _step(controller, snrs, demands)
