"""The benchmark's three closed-loop workloads.

Each workload turns ``--seed`` into inputs, then runs *episodes*
through the program's public entry points only.  One caller issues the
next controller round or what-if query after the previous one returns:
``workers=1``, no pool.

* ``replay-wan-volatile`` and ``replay-plant-journaled``: an episode is
  one :func:`~repro.sim.replay.replay_controller` run with a fresh
  controller (so an empty TE cache); an op is one controller round.
* ``whatif-plant-tickets``: an episode is :data:`WHATIF_QUERIES`
  back-to-back :func:`~repro.sim.whatif.replay_tickets` queries, each
  with its own corpus and traffic matrix; an op is one query.

Episode ``k`` draws its inputs from ``(seed, k)``, so no input repeats
within a run and a run's cost averages over several instances rather
than hanging on one.  Every episode returns its op latencies, the op
time, the number of ops that failed the correctness gate and a
canonical result digest in the form of the committed goldens
(sorted-key JSON, exact float repr).
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

from repro.core.controller import DynamicCapacityController
from repro.core.policies import run_policy
from repro.net.demands import gravity_demands
from repro.net.srlg import duplex_srlgs
from repro.net.topologies import abilene, figure7_topology
from repro.optics.impairments import AmplifierDegradation
from repro.sim.replay import replay_controller
from repro.sim.whatif import replay_tickets
from repro.telemetry.timebase import Timebase
from repro.telemetry.traces import NoiseModel, synthesize_cable_traces
from repro.tickets.generator import TicketConfig, TicketGenerator

#: TE recomputation period of both replay workloads
TE_INTERVAL_S = 2 * 3600.0
#: queries per what-if episode (the digest covers the first episode)
WHATIF_QUERIES = 8
#: BER-feasibility slack, as in the controller's own audit
BER_TOLERANCE_GBPS = 1e-9


def canonical_digest(result: Any) -> str:
    """SHA-256 of the goldens' canonical JSON form of ``result``."""
    text = json.dumps(result, sort_keys=True, indent=1) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _floats(values: Any) -> list[float]:
    return [float(x) for x in np.asarray(values).ravel()]


def _ints(values: Any) -> list[int]:
    return [int(x) for x in np.asarray(values).ravel()]


@dataclass
class Episode:
    """What one episode measured and checked."""

    latencies_s: list[float]
    busy_s: float
    n_failed: int
    digest: str
    journal_bytes: int = 0
    #: host slowness around the episode (see ``hostspeed``); set by the caller
    slowness: float = 1.0

    @property
    def n_ops(self) -> int:
        return len(self.latencies_s)

    @property
    def scaled_busy_s(self) -> float:
        """Op time at the reference host speed."""
        return self.busy_s / self.slowness


class ReplayWorkload:
    """Controller replays, each over its own seeded traces and demands."""

    def __init__(
        self,
        seed: int,
        workdir: Path,
        *,
        topology: Any,
        offered_gbps: float,
        days: float,
        sigma_db: float,
        margin_db: tuple[float, float],
        n_dips: int,
        journal: bool,
    ):
        self.seed = seed
        self.workdir = workdir
        self.topology = topology
        self.offered_gbps = offered_gbps
        self.timebase = Timebase.from_duration(days=days)
        self.noise = NoiseModel(sigma_db=sigma_db, wander_amplitude_db=0.0)
        self.margin_db = margin_db
        self.n_dips = n_dips
        self.journal = journal
        srlgs = duplex_srlgs(topology)
        self.cables = [
            (cable, sorted(srlgs.links_of(cable))) for cable in sorted(srlgs.cables())
        ]

    def inputs(self, index: int) -> tuple[dict[str, Any], list[Any]]:
        """Episode ``index``'s per-link SNR traces and traffic matrix."""
        seed, timebase = self.seed, self.timebase
        dipped = _rng(seed, index, 1).choice(
            len(self.cables), size=self.n_dips, replace=False
        )
        traces: dict[str, Any] = {}
        for number, (cable, links) in enumerate(self.cables):
            rng = _rng(seed, index, 2, number)
            # baselines sit ``margin_db`` above a rung's SNR threshold:
            # near a threshold the noise alone moves capacities
            rungs = rng.choice([10.5, 12.5, 14.5], size=len(links))
            baselines = rungs + rng.uniform(*self.margin_db, size=len(links))
            events = []
            if number in dipped:
                events.append(
                    AmplifierDegradation(
                        float(rng.uniform(0.0, timebase.duration_s * 0.8)),
                        float(rng.uniform(2.0, 8.0)) * 3600.0,
                        float(rng.uniform(3.0, 8.0)),
                    )
                )
            cable_traces = synthesize_cable_traces(
                cable, baselines, timebase, events, {}, self.noise, rng
            )
            traces.update(zip(links, cable_traces))
        demands = gravity_demands(
            self.topology, self.offered_gbps, _rng(seed, index, 3)
        )
        return traces, demands

    def construct(self) -> DynamicCapacityController:
        """A fresh controller, as every run starts with."""
        return DynamicCapacityController(
            self.topology, policy=run_policy(), seed=self.seed
        )

    def prepare(self) -> None:
        """Generate the first episode's inputs and construct its controller."""
        self.inputs(0)
        self.construct()

    def episode(self, index: int, *, te_cache: bool | None = None) -> Episode:
        """One full replay over episode ``index``'s inputs."""
        traces, demands = self.inputs(index)
        journal_dir = self.workdir / f"journal-{index}" if self.journal else None
        latencies: list[float] = []
        n_failed = 0
        paused = 0.0
        start = mark = perf_counter()
        controller = self.construct()
        inner_step = controller.step
        table = controller.table

        def step(snr_by_link: dict[str, float], demands: Any) -> Any:
            # an op runs from the previous round's end to this one's;
            # the correctness gate runs with the clock stopped
            nonlocal mark, paused, n_failed
            report = inner_step(snr_by_link, demands)
            end = perf_counter()
            latencies.append(end - mark)
            links = controller.state.links
            n_failed += report.te_fallback or any(
                links[link_id].capacity_gbps
                > table.feasible_capacity(snr) + BER_TOLERANCE_GBPS
                for link_id, snr in snr_by_link.items()
            )
            mark = perf_counter()
            paused += mark - end
            return report

        controller.step = step  # observes round boundaries only
        result = replay_controller(
            controller,
            traces,
            demands,
            te_interval_s=TE_INTERVAL_S,
            te_cache=te_cache,
            journal_dir=None if journal_dir is None else str(journal_dir),
        )
        busy_s = perf_counter() - start - paused

        journal_bytes = 0
        if journal_dir is not None:
            journal_bytes = sum(
                path.stat().st_size for path in journal_dir.iterdir()
            )
            shutil.rmtree(journal_dir)
        return Episode(
            latencies_s=latencies,
            busy_s=busy_s,
            n_failed=n_failed,
            digest=canonical_digest(self.canonical(result)),
            journal_bytes=journal_bytes,
        )

    @staticmethod
    def canonical(result: Any) -> dict[str, Any]:
        """The replay golden's fields for this run."""
        return {
            "n_rounds": result.n_rounds,
            "times_s": _floats(result.times_s),
            "throughput_gbps": _floats(result.throughput_gbps),
            "n_upgrades": _ints(result.n_upgrades),
            "n_downgrades": _ints(result.n_downgrades),
            "n_failed": _ints(result.n_failed),
            "downtime_s": _floats(result.downtime_s),
            "mean_throughput_gbps": float(result.mean_throughput_gbps),
            "total_capacity_changes": int(result.total_capacity_changes),
            "total_downtime_s": float(result.total_downtime_s),
            "report_batches": [
                int(r.n_reconfiguration_batches) for r in result.reports
            ],
            "report_disrupted_gbps": [
                float(r.traffic_disrupted_gbps) for r in result.reports
            ],
        }


class WhatIfWorkload:
    """Back-to-back ticket what-if queries on the Figure-7 plant."""

    def __init__(self, seed: int):
        self.seed = seed
        self.topology = figure7_topology()
        self.srlgs = duplex_srlgs(self.topology)
        self.cables = self.srlgs.cables()
        self.generator = TicketGenerator(TicketConfig(n_events=40, months=7.0))

    def query(self, index: int) -> tuple[list[Any], list[Any]]:
        """Query ``index``'s corpus and traffic matrix.

        The generator names synthetic elements (``cable000``...); they
        fold onto the plant's cables the way the registered ``whatif``
        experiment folds them.
        """
        corpus = self.generator.generate(_rng(self.seed, 4, index))
        cables = self.cables
        corpus = [
            replace(t, element=cables[int(t.element[5:]) % len(cables)])
            for t in corpus
        ]
        demands = gravity_demands(self.topology, 300.0, _rng(self.seed, 5, index))
        return corpus, demands

    def prepare(self) -> None:
        """Generate the first query's inputs (a query constructs nothing)."""
        self.query(0)

    def episode(self, index: int, *, te_cache: bool | None = None) -> Episode:
        """Queries ``index * WHATIF_QUERIES`` onwards, one op each."""
        latencies: list[float] = []
        n_failed = 0
        answers = []
        first = index * WHATIF_QUERIES
        for number in range(first, first + WHATIF_QUERIES):
            corpus, demands = self.query(number)
            start = perf_counter()
            report = replay_tickets(
                self.topology,
                demands,
                corpus,
                self.srlgs,
                fallback_capacity_gbps=50.0,
                workers=1,
                te_cache=te_cache,
            )
            latencies.append(perf_counter() - start)
            n_failed += any(
                v.dynamic_loss_gbps > v.binary_loss_gbps for v in report.verdicts
            )
            answers.append(self.canonical(report))
        return Episode(
            latencies_s=latencies,
            busy_s=sum(latencies),
            n_failed=n_failed,
            digest=canonical_digest(answers),
        )

    @staticmethod
    def canonical(report: Any) -> dict[str, Any]:
        """The what-if golden's fields for one query."""
        return {
            "n_tickets": int(report.n_tickets),
            "n_impactful": int(report.n_impactful),
            "n_fully_mitigated": int(report.n_fully_mitigated),
            "total_rescued_gbps_hours": float(report.total_rescued_gbps_hours),
            "verdicts": [
                {
                    "ticket_id": v.ticket.ticket_id,
                    "element": v.ticket.element,
                    "binary_loss_gbps": float(v.binary_loss_gbps),
                    "dynamic_loss_gbps": float(v.dynamic_loss_gbps),
                    "rescued_gbps_hours": float(v.rescued_gbps_hours),
                }
                for v in report.verdicts
            ],
        }


WORKLOADS = ("replay-wan-volatile", "replay-plant-journaled", "whatif-plant-tickets")


def build(name: str, seed: int, workdir: Path) -> ReplayWorkload | WhatIfWorkload:
    """Generate workload ``name``'s inputs from ``seed``."""
    if name == "replay-wan-volatile":
        # noisy and dipping: capacities move every round, the memo misses
        return ReplayWorkload(
            seed, workdir,
            topology=abilene(), offered_gbps=3000.0, days=1.5,
            sigma_db=0.3, margin_db=(0.0, 2.0), n_dips=3, journal=False,
        )
    if name == "replay-plant-journaled":
        # stable and away from thresholds: the memo hits, the journal shows
        return ReplayWorkload(
            seed, workdir,
            topology=figure7_topology(), offered_gbps=300.0, days=30.0,
            sigma_db=0.05, margin_db=(0.5, 1.5), n_dips=0, journal=True,
        )
    if name == "whatif-plant-tickets":
        return WhatIfWorkload(seed)
    raise KeyError(f"unknown workload {name!r} (valid: {', '.join(WORKLOADS)})")
