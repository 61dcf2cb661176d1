"""Tests for the ticket what-if replay."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.demands import Demand, gravity_demands
from repro.net.srlg import duplex_srlgs
from repro.net.topologies import abilene, figure7_topology, line_topology
from repro.net.topology import Topology
from repro.obs import metrics
from repro.obs.trace import Tracer, tracing
from repro.optics.impairments import RootCause
from repro.sim import whatif
from repro.sim.network_availability import cable_event_impacts
from repro.sim.whatif import LOSS_FLOOR_GBPS, TicketVerdict, replay_tickets
from repro.state.model import NetworkState
from repro.te import incremental
from repro.te.incremental import batch_throughput
from repro.te.lp import MultiCommodityLp
from repro.tickets.generator import TicketConfig, TicketGenerator
from repro.tickets.model import Ticket


def ticket(cable, cause=RootCause.HARDWARE, hours=4.0, i=0):
    return Ticket(
        ticket_id=f"TKT-{i:06d}",
        root_cause=cause,
        opened_s=float(i) * 1000.0,
        duration_s=hours * 3600.0,
        element=cable,
    )


class TestReplayTickets:
    def test_hardware_ticket_mitigated_on_chain(self):
        topo = line_topology(3)
        demands = [Demand("n0", "n2", 100.0)]
        srlgs = duplex_srlgs(topo)
        report = replay_tickets(
            topo, demands, [ticket("fiber:n0--n1")], srlgs
        )
        verdict = report.verdicts[0]
        assert verdict.binary_loss_gbps == pytest.approx(100.0)
        assert verdict.dynamic_loss_gbps == pytest.approx(50.0)
        assert verdict.rescued_gbps == pytest.approx(50.0)
        assert verdict.rescued_gbps_hours == pytest.approx(200.0)

    def test_fiber_cut_not_mitigated(self):
        topo = line_topology(3)
        demands = [Demand("n0", "n2", 100.0)]
        srlgs = duplex_srlgs(topo)
        report = replay_tickets(
            topo, demands, [ticket("fiber:n0--n1", RootCause.FIBER_CUT)], srlgs
        )
        verdict = report.verdicts[0]
        assert verdict.binary_loss_gbps == verdict.dynamic_loss_gbps
        assert verdict.rescued_gbps == 0.0
        assert not verdict.fully_mitigated

    def test_full_mitigation_on_light_load(self):
        # the square reroutes a small demand entirely: dynamic loses nothing
        topo = figure7_topology()
        demands = [Demand("A", "D", 150.0)]
        srlgs = duplex_srlgs(topo)
        report = replay_tickets(topo, demands, [ticket("fiber:A--B")], srlgs)
        verdict = report.verdicts[0]
        assert verdict.binary_loss_gbps > 0
        assert verdict.dynamic_loss_gbps == pytest.approx(0.0, abs=1e-3)
        assert verdict.fully_mitigated
        assert report.n_fully_mitigated == 1

    def test_aggregates(self):
        topo = figure7_topology()
        demands = [Demand("A", "D", 150.0)]
        srlgs = duplex_srlgs(topo)
        tickets = [
            ticket("fiber:A--B", i=0),
            ticket("fiber:C--D", i=1),
            ticket("fiber:A--B", RootCause.FIBER_CUT, i=2),
        ]
        report = replay_tickets(topo, demands, tickets, srlgs)
        assert report.n_tickets == 3
        assert report.total_rescued_gbps_hours >= 0.0

    def test_scenario_cache_consistency(self):
        # two tickets on the same cable must agree
        topo = line_topology(3)
        demands = [Demand("n0", "n2", 100.0)]
        srlgs = duplex_srlgs(topo)
        report = replay_tickets(
            topo,
            demands,
            [ticket("fiber:n0--n1", i=0), ticket("fiber:n0--n1", i=1)],
            srlgs,
        )
        a, b = report.verdicts
        assert a.binary_loss_gbps == b.binary_loss_gbps
        assert a.dynamic_loss_gbps == b.dynamic_loss_gbps

    def test_unknown_cable_rejected(self):
        topo = line_topology(3)
        srlgs = duplex_srlgs(topo)
        with pytest.raises(KeyError, match="unknown cable"):
            replay_tickets(
                topo, [Demand("n0", "n2", 1.0)], [ticket("ghost")], srlgs
            )

    def test_srlg_link_missing_from_topology_rejected(self, monkeypatch):
        # a cable over a link the topology lacks is an input error, not
        # an outage that costs nothing
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before validating the input")

        monkeypatch.setattr(whatif, "solve_throughput", no_solve)
        topo = figure7_topology()
        srlgs = duplex_srlgs(topo)
        srlgs.add("ghost", ["no-such-link"])
        with pytest.raises(ValueError, match="unknown links"):
            replay_tickets(
                topo,
                [Demand("A", "D", 150.0)],
                [ticket("ghost", RootCause.FIBER_CUT)],
                srlgs,
            )

    def test_non_positive_fallback_rejected(self):
        # even where a certificate would settle the flap without a solve
        topo = line_topology(3)
        with pytest.raises(ValueError, match="positive"):
            replay_tickets(
                topo,
                [Demand("n0", "n1", 1.0)],
                [ticket("fiber:n1--n2")],
                duplex_srlgs(topo),
                fallback_capacity_gbps=0.0,
            )

    def test_empty_corpus_rejected(self):
        topo = line_topology(3)
        with pytest.raises(ValueError):
            replay_tickets(
                topo, [Demand("n0", "n2", 1.0)], [], duplex_srlgs(topo)
            )

    def test_flapped_cable_not_darkened_rejected_before_solving(self, monkeypatch):
        # every flap's certificate reads its darkened value, so a flapped
        # cable missing from ``darkened`` is an input error, named up front
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before validating the input")

        monkeypatch.setattr(whatif, "solve_throughput", no_solve)
        topo = figure7_topology()
        with pytest.raises(ValueError, match=r"fiber:A--C.*fiber:C--D"):
            whatif.settle_scenarios(
                topo,
                [Demand("A", "D", 150.0)],
                duplex_srlgs(topo),
                ["fiber:A--B"],
                ["fiber:C--D", "fiber:A--B", "fiber:A--C"],
                fallback_capacity_gbps=50.0,
            )


class TestDeterminism:
    """Replays must be bit-identical: artifacts are content-addressed by
    spec hash, so two runs of the same spec must agree to the last bit."""

    def _replay(self, *, reverse=False):
        from repro.seeds import component_rng

        topo = figure7_topology()
        srlgs = duplex_srlgs(topo)
        cables = sorted(srlgs.groups)
        corpus = TicketGenerator(TicketConfig(n_events=40)).generate(
            component_rng(2017, "tickets")
        )
        # retarget the generated tickets onto this topology's cables
        retargeted = [
            Ticket(
                ticket_id=t.ticket_id,
                root_cause=t.root_cause,
                opened_s=t.opened_s,
                duration_s=t.duration_s,
                element=cables[i % len(cables)],
            )
            for i, t in enumerate(corpus)
        ]
        if reverse:
            retargeted.reverse()
        demands = [Demand("A", "D", 150.0), Demand("B", "C", 80.0)]
        return replay_tickets(topo, demands, retargeted, srlgs)

    def test_verdicts_bit_identical_across_runs(self):
        first = self._replay()
        second = self._replay()
        assert first.n_tickets == second.n_tickets
        for a, b in zip(first.verdicts, second.verdicts):
            assert a.ticket.ticket_id == b.ticket.ticket_id
            # exact equality on purpose: no approx — same spec hash
            # must mean byte-identical artifact payloads
            assert a.binary_loss_gbps == b.binary_loss_gbps
            assert a.dynamic_loss_gbps == b.dynamic_loss_gbps
            assert a.rescued_gbps == b.rescued_gbps
            assert a.rescued_gbps_hours == b.rescued_gbps_hours
        assert (
            first.total_rescued_gbps_hours == second.total_rescued_gbps_hours
        )

    def test_verdicts_follow_corpus_order(self):
        # a corpus replays the same whether or not it arrives sorted:
        # reversing it reverses the verdicts, bit for bit
        forward = self._replay()
        backward = self._replay(reverse=True)
        assert backward.verdicts == forward.verdicts[::-1]


class TestCertificates:
    """Scenarios whose value is known from the baseline are not solved.

    With the TE cache off and one worker, every LP solve is one HiGHS
    run (one ``lp.solve`` timing, whatever ran before); each case below
    solves the baseline plus exactly the scenarios no certificate
    covers, and ``sim.whatif.solved`` counts the same solves.
    """

    @staticmethod
    def _replay(topo, demands, tickets, **kwargs):
        with metrics.isolated() as reg:
            report = replay_tickets(
                topo, demands, tickets, duplex_srlgs(topo),
                workers=1, te_cache=False, **kwargs,
            )
        solves = reg.get_summary("lp.solve").count
        assert reg.counter_value("sim.whatif.solved") == solves
        return report, solves, reg.counter_value("sim.whatif.certified")

    def test_idle_dark_cable_is_not_solved(self):
        # n0 -> n1 never touches the n1--n2 cable
        report, solves, certified = self._replay(
            line_topology(3),
            [Demand("n0", "n1", 40.0)],
            [ticket("fiber:n1--n2", RootCause.FIBER_CUT)],
        )
        assert (solves, certified) == (1, 1)  # the baseline only
        assert report.verdicts[0].binary_loss_gbps == 0.0

    def test_flap_load_under_fallback_is_not_solved(self):
        # 40 Gbps fits under the 50 Gbps fallback rate
        report, solves, certified = self._replay(
            line_topology(3),
            [Demand("n0", "n2", 40.0)],
            [ticket("fiber:n0--n1")],
            fallback_capacity_gbps=50.0,
        )
        assert (solves, certified) == (2, 1)  # baseline + darkened
        verdict = report.verdicts[0]
        assert verdict.binary_loss_gbps == 40.0
        assert verdict.dynamic_loss_gbps == 0.0

    def test_flap_with_lossless_darkening_is_not_solved(self):
        # the A--C cable carries more than the 50 Gbps fallback; the
        # reroute certificate moves its flow via B for the darkened
        # cable, and the flap keeps the baseline because the darkened
        # value equals it
        topo = Topology("triangle")
        for a, b in (("A", "B"), ("B", "C"), ("A", "C")):
            topo.add_duplex_link(a, b, 100.0)
        report, solves, certified = self._replay(
            topo,
            [Demand("A", "C", 60.0)],
            [ticket("fiber:A--C")],
            fallback_capacity_gbps=50.0,
        )
        assert (solves, certified) == (1, 2)  # the baseline only
        verdict = report.verdicts[0]
        assert verdict.binary_loss_gbps == verdict.dynamic_loss_gbps == 0.0

    def test_plant_cable_flow_detours(self):
        # the baseline loads the A--B cable (this optimum sends 100
        # Gbps round the square and 40 back over B -> A); darkened,
        # the cable's flow detours via C and D
        report, solves, certified = self._replay(
            figure7_topology(),
            [Demand("A", "B", 60.0)],
            [ticket("fiber:A--B", RootCause.FIBER_CUT)],
        )
        assert (solves, certified) == (1, 1)
        assert report.verdicts[0].binary_loss_gbps == 0.0

    def test_detour_back_over_the_commodity_path_cancels(self):
        # A -> D rides A -> B -> D; the A -> B detour A, C, E, D, B
        # passes D and returns over D -> B, which the D -> B demand
        # half fills.  Only cancelling the commodity's own D -> B and
        # B -> D flow leaves room, and the aggregate construction (one
        # detour, 50 Gbps spare) cannot carry the 60
        topo = Topology("pentagon")
        for a, b in (("A", "B"), ("B", "D"), ("A", "C"), ("C", "E"), ("E", "D")):
            topo.add_duplex_link(a, b, 100.0)
        report, solves, certified = self._replay(
            topo,
            [Demand("A", "D", 60.0), Demand("D", "B", 50.0)],
            [ticket("fiber:A--B", RootCause.FIBER_CUT)],
        )
        assert (solves, certified) == (1, 1)
        assert report.verdicts[0].binary_loss_gbps == 0.0

    def test_flap_excess_splits_over_two_detours(self):
        # D -> B rides the B--D cable; flapped to 10, its 30 Gbps of
        # excess needs both detours: D, A, B has 20 Gbps spare beside
        # the A -> B demand, D, A, C, B 15.  Darkened, the two carry
        # only 35 of the 40
        topo = Topology("diamond")
        for a, b, capacity in (
            ("A", "B", 40.0), ("A", "C", 80.0), ("C", "B", 15.0),
            ("A", "D", 100.0), ("D", "B", 40.0),
        ):
            topo.add_duplex_link(a, b, capacity)
        report, solves, certified = self._replay(
            topo,
            [Demand("D", "B", 40.0), Demand("A", "B", 20.0)],
            [ticket("fiber:B--D")],
            fallback_capacity_gbps=10.0,
        )
        assert (solves, certified) == (2, 1)  # baseline + darkened
        verdict = report.verdicts[0]
        assert verdict.binary_loss_gbps == pytest.approx(5.0)
        assert verdict.dynamic_loss_gbps == 0.0

    def test_line_has_no_detour(self):
        report, solves, certified = self._replay(
            line_topology(3),
            [Demand("n0", "n2", 100.0)],
            [ticket("fiber:n0--n1")],
            fallback_capacity_gbps=50.0,
        )
        assert (solves, certified) == (3, 0)
        verdict = report.verdicts[0]
        assert verdict.binary_loss_gbps == pytest.approx(100.0)
        assert verdict.dynamic_loss_gbps == pytest.approx(50.0)

    def test_detour_too_small_is_solved(self):
        # the A--B cable's only detour, via C, carries 30 Gbps
        topo = Topology("triangle")
        topo.add_duplex_link("A", "B", 100.0)
        topo.add_duplex_link("A", "C", 30.0)
        topo.add_duplex_link("C", "B", 30.0)
        report, solves, certified = self._replay(
            topo,
            [Demand("A", "B", 100.0)],
            [ticket("fiber:A--B")],
            fallback_capacity_gbps=50.0,
        )
        assert (solves, certified) == (3, 0)
        verdict = report.verdicts[0]
        assert verdict.binary_loss_gbps == pytest.approx(70.0)
        assert verdict.dynamic_loss_gbps == pytest.approx(20.0)


def test_plant_ticket_queries_solve_only_lossy_scenarios(monkeypatch):
    """Every scenario reaching HiGHS loses traffic.

    The first 16 plant queries of the ``whatif-plant-tickets``
    benchmark workload: a 40-ticket corpus folded onto the plant's
    cables and a 300 Gbps gravity matrix per query.  Any scenario a
    solve returns within the loss floor of the baseline is one a
    certificate should have settled.
    """
    solved = []

    def recording(scenarios, demands, **kwargs):
        values = batch_throughput(scenarios, demands, **kwargs)
        solved.extend(values)
        return values

    monkeypatch.setattr(whatif, "batch_throughput", recording)
    topo = figure7_topology()
    srlgs = duplex_srlgs(topo)
    cables = srlgs.cables()
    generator = TicketGenerator(TicketConfig(n_events=40, months=7.0))
    for query in range(16):
        corpus = [
            replace(t, element=cables[int(t.element[5:]) % len(cables)])
            for t in generator.generate(np.random.default_rng([0, 4, query]))
        ]
        demands = gravity_demands(topo, 300.0, np.random.default_rng([0, 5, query]))
        baseline = batch_throughput([topo], demands, te_cache=False)[0]
        solved.clear()
        with metrics.isolated() as reg:
            replay_tickets(
                topo, demands, corpus, srlgs,
                fallback_capacity_gbps=50.0, workers=1,
            )
        n_scenarios = 1 + len({t.element for t in corpus}) + len(
            {t.element for t in corpus if not t.is_binary_failure}
        )
        assert reg.counter_value("sim.whatif.solved") == 1 + len(solved)
        assert (
            reg.counter_value("sim.whatif.certified")
            + reg.counter_value("sim.whatif.solved")
            == n_scenarios
        )
        assert all(value < baseline - LOSS_FLOOR_GBPS for value in solved), (
            query, baseline, solved,
        )


def test_plant_queries_solve_from_states_alone(monkeypatch):
    """Warm scenario solves bind states straight into the cached models.

    Once a warm-up query has solved every darkened plant cable (a cut
    of each under a heavy matrix), so the worker cache holds every
    scenario wiring, the ``whatif-plant-tickets`` queries materialize
    no topology and extract no solution, and fork a state only for the
    scenarios they solve.
    """
    topo = figure7_topology()
    srlgs = duplex_srlgs(topo)
    cables = srlgs.cables()
    incremental.worker_cache().clear()
    with metrics.isolated() as reg:
        replay_tickets(
            topo,
            gravity_demands(topo, 3000.0, np.random.default_rng(1)),
            [ticket(cable, RootCause.FIBER_CUT, i=i) for i, cable in enumerate(cables)],
            srlgs,
            workers=1,
        )
    assert reg.counter_value("sim.whatif.solved") == 1 + len(cables)

    calls = dict.fromkeys(["to_topology", "_extract", "evolve"], 0)
    for owner, name in (
        (NetworkState, "to_topology"),
        (MultiCommodityLp, "_extract"),
        (NetworkState, "evolve"),
    ):
        def counted(*args, _original=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    generator = TicketGenerator(TicketConfig(n_events=40, months=7.0))
    for query in range(4):
        corpus = [
            replace(t, element=cables[int(t.element[5:]) % len(cables)])
            for t in generator.generate(np.random.default_rng([0, 4, query]))
        ]
        demands = gravity_demands(topo, 300.0, np.random.default_rng([0, 5, query]))
        calls.update(dict.fromkeys(calls, 0))
        with metrics.isolated() as reg:
            replay_tickets(
                topo, demands, corpus, srlgs,
                fallback_capacity_gbps=50.0, workers=1,
            )
        solved = reg.counter_value("sim.whatif.solved")
        assert solved > 1
        assert calls == {
            "to_topology": 0, "_extract": 0, "evolve": solved - 1
        }, query


_TOPOLOGIES = {
    "line": line_topology(4),
    "plant": figure7_topology(),
    "abilene": abilene(),
}


@st.composite
def queries(draw):
    """A topology, random demands, a fallback rate and a ticket corpus."""
    topo = _TOPOLOGIES[draw(st.sampled_from(sorted(_TOPOLOGIES)))]
    srlgs = duplex_srlgs(topo)
    nodes = st.sampled_from(topo.nodes)
    pairs = st.tuples(nodes, nodes).filter(lambda p: p[0] != p[1])
    volumes = st.one_of(
        st.sampled_from([5.0, 40.0, 60.0, 150.0, 400.0]),
        st.floats(0.5, 500.0, allow_nan=False, allow_infinity=False),
    )
    demands = [
        Demand(src, dst, volume)
        for (src, dst), volume in draw(
            st.lists(st.tuples(pairs, volumes), min_size=1, max_size=8)
        )
    ]
    fallback = draw(st.sampled_from([10.0, 25.0, 50.0, 75.0, 150.0]))
    tickets = [
        Ticket(
            ticket_id=f"TKT-{i:06d}",
            root_cause=cause,
            opened_s=opened,
            duration_s=3_600.0,
            element=cable,
        )
        for i, (cable, cause, opened) in enumerate(
            draw(
                st.lists(
                    st.tuples(
                        st.sampled_from(srlgs.cables()),
                        st.sampled_from(list(RootCause)),
                        st.floats(0.0, 1e6, allow_nan=False),
                    ),
                    min_size=1,
                    max_size=12,
                )
            )
        )
    ]
    return topo, srlgs, demands, fallback, tickets


def _solve_every_cable(topo, srlgs, demands, fallback, cables):
    """The baseline and each cable's darkened and flapped values, every
    scenario solved uncached and serial, then snapped to the baseline
    within the loss floor."""
    base = NetworkState.from_topology(topo, label="base")
    scenarios = [base]
    for cable in cables:
        links = sorted(srlgs.links_of(cable))
        scenarios.append(base.darken(links, label=f"fail:{cable}"))
        scenarios.append(base.flap(links, fallback, label=f"degrade:{cable}"))
    baseline, *values = batch_throughput(
        scenarios, demands, workers=1, te_cache=False
    )
    values = [
        baseline if abs(value - baseline) <= LOSS_FLOOR_GBPS else value
        for value in values
    ]
    return baseline, dict(zip(cables, values[0::2])), dict(zip(cables, values[1::2]))


def _solve_every_scenario(topo, srlgs, demands, fallback, tickets):
    """The verdicts with every scenario solved, uncached and serial."""
    cables = sorted({t.element for t in tickets})
    baseline, darkened, flapped = _solve_every_cable(
        topo, srlgs, demands, fallback, cables
    )
    verdicts = []
    for t in tickets:
        binary = darkened[t.element]
        dynamic = binary if t.is_binary_failure else flapped[t.element]
        verdicts.append(
            TicketVerdict(t, max(baseline - binary, 0.0), max(baseline - dynamic, 0.0))
        )
    return verdicts


def _bits(verdict):
    return (
        verdict.ticket,
        verdict.binary_loss_gbps.hex(),
        verdict.dynamic_loss_gbps.hex(),
    )


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("te_cache", [True, False], ids=["cache", "no-cache"])
@settings(max_examples=30, deadline=None)
@given(query=queries())
def test_certified_verdicts_equal_solving_every_scenario(te_cache, workers, query):
    topo, srlgs, demands, fallback, tickets = query
    report = replay_tickets(
        topo, demands, tickets, srlgs,
        fallback_capacity_gbps=fallback, workers=workers, te_cache=te_cache,
    )
    expected = _solve_every_scenario(topo, srlgs, demands, fallback, tickets)
    assert [_bits(v) for v in report.verdicts] == [_bits(v) for v in expected]

    # the cable drill settles its scenarios the same way
    drill = cable_event_impacts(
        topo, demands, srlgs,
        fallback_capacity_gbps=fallback, workers=workers, te_cache=te_cache,
    )
    baseline, darkened, flapped = _solve_every_cable(
        topo, srlgs, demands, fallback, srlgs.cables()
    )
    assert [
        (i.cable, i.baseline_gbps.hex(), i.binary_gbps.hex(), i.dynamic_gbps.hex())
        for i in drill.impacts
    ] == [
        (cable, baseline.hex(), darkened[cable].hex(), flapped[cable].hex())
        for cable in srlgs.cables()
    ]


# Abilene queries where a certified scenario's solve lands one ulp below
# the baseline: the darkened idle Atlanta--WashingtonDC cable, and the
# flapped Chicago--Indianapolis cable whose darkened value equals the
# baseline while its flapped solve is one ulp lower
_ULP_TIES = {
    "dark-idle": (
        [("Atlanta", "Chicago", 5.0), ("Atlanta", "Chicago", 5.0),
         ("Chicago", "LosAngeles", 5.0), ("Denver", "Atlanta", 1.3513746077564264),
         ("Atlanta", "Chicago", 5.0), ("Denver", "LosAngeles", 400.0),
         ("Atlanta", "Chicago", 5.0)],
        "fiber:Atlanta--WashingtonDC",
    ),
    "flap-equals-dark": (
        [("Atlanta", "Chicago", 5.0), ("Chicago", "LosAngeles", 40.0),
         ("Denver", "Atlanta", 5.351374607756426), ("Atlanta", "Chicago", 5.0),
         ("Chicago", "Atlanta", 5.0), ("Denver", "LosAngeles", 400.0)],
        "fiber:Chicago--Indianapolis",
    ),
}


@pytest.mark.parametrize("case", sorted(_ULP_TIES))
def test_certified_verdict_equals_a_solve_one_ulp_lower(case):
    pairs, cable = _ULP_TIES[case]
    topo = abilene()
    srlgs = duplex_srlgs(topo)
    demands = [Demand(src, dst, volume) for src, dst, volume in pairs]
    tickets = [ticket(cable, RootCause.MAINTENANCE)]
    with metrics.isolated() as reg:
        report = replay_tickets(
            topo, demands, tickets, srlgs,
            fallback_capacity_gbps=10.0, workers=4, te_cache=True,
        )
    assert reg.counter_value("sim.whatif.certified") >= 1
    expected = _solve_every_scenario(topo, srlgs, demands, 10.0, tickets)
    assert [_bits(v) for v in report.verdicts] == [_bits(v) for v in expected]
    assert report.verdicts[0].dynamic_loss_gbps == 0.0


def test_losses_within_the_floor_read_as_zero(monkeypatch):
    """The settler stores a value within the floor of the baseline, on
    either side, as the baseline, and keeps one twice the floor below.

    n0 -> n3 crosses every cable of the line, so no certificate covers
    a darkened one and each value comes from the batch solve.
    """
    topo = line_topology(4)
    srlgs = duplex_srlgs(topo)
    cables = srlgs.cables()
    offsets = [LOSS_FLOOR_GBPS / 2, -LOSS_FLOOR_GBPS / 2, -2 * LOSS_FLOOR_GBPS]
    baseline = 100.0
    monkeypatch.setattr(
        whatif,
        "batch_throughput",
        lambda scenarios, demands, **kwargs: [
            baseline + offset for offset in offsets[: len(scenarios)]
        ],
    )
    settled_baseline, values = whatif.settle_scenarios(
        topo, [Demand("n0", "n3", baseline)], srlgs, cables, [],
        fallback_capacity_gbps=50.0, workers=1, te_cache=False,
    )
    assert settled_baseline == baseline
    assert [values[(cable, True)] for cable in cables] == [
        baseline, baseline, baseline - 2 * LOSS_FLOOR_GBPS,
    ]


@pytest.mark.parametrize("query", ["whatif", "drill"])
def test_query_span_covers_every_solve(monkeypatch, query):
    """The query's own span is open while the settler solves, so a trace
    charges the LP time to the what-if replay or the cable drill."""
    tracer = Tracer()
    open_at_solve = []

    def recording(solve):
        def wrapped(*args, **kwargs):
            open_at_solve.append(
                [s.name for s in tracer.spans if s.wall_end_s is None]
            )
            return solve(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(whatif, "solve_throughput", recording(whatif.solve_throughput))
    monkeypatch.setattr(whatif, "batch_throughput", recording(whatif.batch_throughput))
    topo = figure7_topology()
    demands = [Demand("A", "D", 150.0), Demand("B", "C", 80.0)]
    srlgs = duplex_srlgs(topo)
    with tracing(tracer):
        if query == "whatif":
            name = "sim.whatif"
            replay_tickets(
                topo, demands, [ticket(c, i=i) for i, c in enumerate(srlgs.cables())],
                srlgs, workers=1,
            )
        else:
            name = "sim.network_availability"
            cable_event_impacts(topo, demands, srlgs, workers=1)
    assert open_at_solve, "the query solved nothing"
    assert all(name in names for names in open_at_solve), open_at_solve
