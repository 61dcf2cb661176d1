"""Tests for the SRLG-aware reconfiguration scheduler."""

import pytest

from repro.core.scheduler import schedule_reconfigurations
from repro.core.translation import LinkUpgrade
from repro.net.srlg import SrlgMap


def upgrade(link_id, disrupted=0.0):
    return LinkUpgrade(
        link_id=link_id,
        old_capacity_gbps=100.0,
        new_capacity_gbps=200.0,
        headroom_used_gbps=50.0,
        disrupted_traffic_gbps=disrupted,
    )


def srlg_pairs(*pairs):
    srlgs = SrlgMap()
    for cable, links in pairs:
        srlgs.add(cable, links)
    return srlgs


class TestScheduling:
    def test_conflicting_links_split_across_batches(self):
        srlgs = srlg_pairs(("cable1", ["a", "b"]))
        schedule = schedule_reconfigurations([upgrade("a"), upgrade("b")], srlgs)
        assert schedule.n_batches == 2
        assert schedule.n_changes == 2
        # each batch touches the cable only once
        for batch in schedule.batches:
            assert len(batch) == 1

    def test_independent_links_share_a_batch(self):
        srlgs = srlg_pairs(("c1", ["a"]), ("c2", ["b"]), ("c3", ["c"]))
        schedule = schedule_reconfigurations(
            [upgrade("a"), upgrade("b"), upgrade("c")], srlgs
        )
        assert schedule.n_batches == 1
        assert len(schedule.batches[0]) == 3

    def test_no_batch_violates_srlg(self):
        srlgs = srlg_pairs(
            ("c1", ["a", "b"]), ("c2", ["b", "c"]), ("c3", ["d"])
        )
        upgrades = [upgrade(i) for i in "abcd"]
        schedule = schedule_reconfigurations(upgrades, srlgs)
        for batch in schedule.batches:
            seen = set()
            for link_id in batch.link_ids:
                groups = set(srlgs.cables_of(link_id))
                assert not groups & seen
                seen |= groups

    def test_batch_size_cap(self):
        srlgs = srlg_pairs(*((f"c{i}", [f"l{i}"]) for i in range(10)))
        upgrades = [upgrade(f"l{i}") for i in range(10)]
        schedule = schedule_reconfigurations(upgrades, srlgs, max_batch_size=4)
        assert all(len(b) <= 4 for b in schedule.batches)
        assert schedule.n_changes == 10
        assert schedule.n_batches == 3

    def test_heavy_changes_first(self):
        srlgs = srlg_pairs(("c1", ["a", "b"]))
        schedule = schedule_reconfigurations(
            [upgrade("a", disrupted=5.0), upgrade("b", disrupted=80.0)], srlgs
        )
        assert schedule.batches[0].link_ids == ("b",)

    def test_unknown_links_never_conflict(self):
        srlgs = srlg_pairs(("c1", ["a"]))
        schedule = schedule_reconfigurations(
            [upgrade("x"), upgrade("y")], srlgs
        )
        assert schedule.n_batches == 1

    def test_empty_schedule(self):
        schedule = schedule_reconfigurations([], SrlgMap())
        assert schedule.n_batches == 0
        assert schedule.n_changes == 0

    def test_wallclock_estimate(self):
        srlgs = srlg_pairs(("c1", ["a", "b"]))
        schedule = schedule_reconfigurations([upgrade("a"), upgrade("b")], srlgs)
        assert schedule.estimated_wallclock_s(68.0) == pytest.approx(136.0)
        with pytest.raises(ValueError):
            schedule.estimated_wallclock_s(-1.0)

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            schedule_reconfigurations([], SrlgMap(), max_batch_size=0)

    def test_empty_upgrade_list_with_populated_srlgs(self):
        srlgs = srlg_pairs(("c1", ["a", "b"]), ("c2", ["c"]))
        schedule = schedule_reconfigurations([], srlgs)
        assert schedule.n_batches == 0
        assert schedule.n_changes == 0
        assert schedule.batches == ()
        assert schedule.estimated_wallclock_s(68.0) == 0.0

    def test_max_batch_size_one_serializes_everything(self):
        srlgs = srlg_pairs(*((f"c{i}", [f"l{i}"]) for i in range(5)))
        upgrades = [upgrade(f"l{i}", disrupted=float(i)) for i in range(5)]
        schedule = schedule_reconfigurations(upgrades, srlgs, max_batch_size=1)
        assert schedule.n_batches == 5
        assert all(len(b) == 1 for b in schedule.batches)
        # heaviest-first ordering survives the forced serialization
        assert [b.link_ids[0] for b in schedule.batches] == [
            "l4", "l3", "l2", "l1", "l0",
        ]

    def test_all_upgrades_sharing_one_srlg_become_singleton_batches(self):
        links = [f"w{i}" for i in range(6)]
        srlgs = srlg_pairs(("the-cable", links))
        schedule = schedule_reconfigurations(
            [upgrade(l) for l in links], srlgs, max_batch_size=8
        )
        assert schedule.n_batches == len(links)
        assert all(len(b) == 1 for b in schedule.batches)
        assert schedule.n_changes == len(links)

    def test_plant_integration(self):
        """Duplex pairs conflict: upgrading both directions takes 2 batches."""
        from repro.net.srlg import duplex_srlgs
        from repro.net.topologies import figure7_topology

        topo = figure7_topology()
        srlgs = duplex_srlgs(topo)
        ab = topo.links_between("A", "B")[0].link_id
        ba = topo.links_between("B", "A")[0].link_id
        cd = topo.links_between("C", "D")[0].link_id
        schedule = schedule_reconfigurations(
            [upgrade(ab), upgrade(ba), upgrade(cd)], srlgs
        )
        assert schedule.n_batches == 2
        for batch in schedule.batches:
            assert not ({ab, ba} <= set(batch.link_ids))
