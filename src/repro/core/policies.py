"""Run, walk, crawl: the capacity-adaptation spectrum of the title.

A policy decides the *target* capacity of a link given what its SNR
currently supports.  The three named operating points:

* **run** — track the SNR-feasible capacity aggressively: upgrade the
  moment headroom appears, downgrade the moment it vanishes.  Maximum
  throughput, maximum churn.
* **walk** — adapt with hysteresis: upgrade only when the SNR clears
  the target rung's threshold by a safety margin (so noise cannot flap
  the link back), downgrade when required.  The operating point the
  paper's deployment story suggests.
* **crawl** — today's network: never upgrade; on SNR loss, fall to the
  highest still-feasible rung rather than failing outright.  The
  minimal change that still converts failures into flaps (Section 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.optics.modulation import DEFAULT_MODULATIONS, ModulationTable


@dataclass(frozen=True)
class AdaptationPolicy:
    """Maps (current capacity, SNR) to a target capacity on the ladder.

    Attributes:
        name: display name.
        allow_upgrades: can the policy raise capacity at all?
        upgrade_margin_db: extra SNR (beyond the rung's threshold) the
            link must have before the policy upgrades *to* that rung.
            0 = greedy; ~1-2 dB = hysteresis against noise flapping.
        table: the modulation ladder.
    """

    name: str
    allow_upgrades: bool
    upgrade_margin_db: float = 0.0
    table: ModulationTable = DEFAULT_MODULATIONS

    def __post_init__(self) -> None:
        if self.upgrade_margin_db < 0:
            raise ValueError("upgrade margin must be non-negative")

    def target_capacity_gbps(
        self, current_capacity_gbps: float, snr_db: float
    ) -> float:
        """The capacity this policy wants the link at, given its SNR.

        Downgrades are never optional: if the SNR cannot sustain the
        current rate, every policy falls to the fastest feasible rung
        (possibly 0 = link down) — that is the availability story.
        Upgrades respect ``allow_upgrades`` and the hysteresis margin.
        """
        feasible = self.table.feasible_capacity(snr_db)
        if feasible <= current_capacity_gbps:
            return feasible  # forced downgrade (or no-op when equal)
        if not self.allow_upgrades:
            return current_capacity_gbps
        # pick the fastest rung whose threshold clears SNR - margin
        guarded = self.table.feasible_capacity(snr_db - self.upgrade_margin_db)
        return max(guarded, current_capacity_gbps)

    def headroom_gbps(self, current_capacity_gbps: float, snr_db: float) -> float:
        """Upgrade headroom this policy exposes to Algorithm 1 (the U entry)."""
        target = self.target_capacity_gbps(current_capacity_gbps, snr_db)
        return max(target - current_capacity_gbps, 0.0)


def run_policy(table: ModulationTable = DEFAULT_MODULATIONS) -> AdaptationPolicy:
    """Aggressive tracking: any feasible headroom is offered to TE."""
    return AdaptationPolicy("run", allow_upgrades=True, upgrade_margin_db=0.0,
                            table=table)


def walk_policy(
    margin_db: float = 1.5, table: ModulationTable = DEFAULT_MODULATIONS
) -> AdaptationPolicy:
    """Hysteretic adaptation: upgrades need ``margin_db`` of safety."""
    return AdaptationPolicy(
        "walk", allow_upgrades=True, upgrade_margin_db=margin_db, table=table
    )


def crawl_policy(table: ModulationTable = DEFAULT_MODULATIONS) -> AdaptationPolicy:
    """No upgrades; downgrades replace failures (today's network + flaps)."""
    return AdaptationPolicy("crawl", allow_upgrades=False, table=table)


#: the three named operating points by name (the ``policy`` choices of
#: the ``reactive`` and ``chaos`` experiments)
POLICIES = {"run": run_policy, "walk": walk_policy, "crawl": crawl_policy}

#: when the controller recomputes: on its schedule only, also on an SNR
#: alarm, or also ahead of a predicted dip (:mod:`repro.sim.reactive`;
#: the ``mode`` choices of the ``reactive`` experiment)
REACTION_MODES = ("scheduled", "reactive", "proactive")
