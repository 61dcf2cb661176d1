"""The closed control loop: telemetry -> augment -> TE -> BVT.

:class:`DynamicCapacityController` is the deployment story of the paper
assembled from the pieces:

1. read each wavelength's SNR and ask the adaptation policy
   (:mod:`repro.core.policies`) for a target capacity;
2. apply forced *downgrades* first — a link whose SNR no longer
   sustains its rate flaps to a lower rung (or goes down entirely),
   which is the availability improvement of Section 2.2;
3. expose the remaining upgrade headroom to Algorithm 1
   (:mod:`repro.core.augmentation`) and run an **unmodified** TE
   algorithm on the augmented graph;
4. translate the TE output (:mod:`repro.core.translation`) into
   capacity upgrades and execute them on the per-link BVTs, accounting
   for reconfiguration downtime (standard ~68 s vs efficient ~35 ms,
   Section 3.1).

The TE algorithm is injected as a plain callable, underscoring the
paper's point: SWAN/B4/CSPF run here without modification.

The loop is *hardened* against degraded operation (the regime the
paper's §2 data says dominates): BVT reconfigurations that fail are
retried under a bounded exponential-backoff-with-jitter
:class:`RetryPolicy`; NaN/missing SNR readings trigger stale-telemetry
handling (hold the last good reading for a few rounds, then fall back
to a safe floor capacity); and a TE solve that raises
:class:`~repro.te.solution.TeSolverError` degrades gracefully to the
last known-good solution.  Every one of these paths is provably
zero-cost when unused: with clean telemetry and no fault injector
bound, the loop's arithmetic is bit-identical to the unhardened one
(the golden equivalence suite enforces this).  Every round ends with
a BER-feasibility audit (:attr:`ControllerReport.ber_violations`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping, NamedTuple, Sequence, TypeVar

import numpy as np

from repro.bvt.transceiver import Bvt, BvtFaultError, ChangeProcedure
from repro.core.augmentation import augment_topology
from repro.core.penalties import TrafficDisruptionPenalty
from repro.core.policies import AdaptationPolicy, walk_policy
from repro.core.translation import LinkUpgrade, TranslationResult, translate
from repro.net.demands import Demand
from repro.net.topology import Topology
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.optics.modulation import LOSS_OF_LIGHT_SNR_DB, ModulationTable
from repro.recovery.journal import ControllerCrash, StateJournal, journal_exists, reopen
from repro.recovery.reports import report_payload, restore_solution
from repro.seeds import component_rng
from repro.state.model import NetworkState
from repro.state.store import StateStore
from repro.te.incremental import CachedTeAlgorithm, RoundMemo, round_key
from repro.te.lp import MultiCommodityLp
from repro.te.solution import TeSolution, TeSolverError, empty_solution

#: a TE algorithm: (topology, demands) -> TeSolution
TeAlgorithm = Callable[[Topology, Sequence[Demand]], TeSolution]

_T = TypeVar("_T")

#: prices each upgrade by the traffic its reconfiguration would hit
_PENALTY = TrafficDisruptionPenalty()

#: rounds a NaN (stale) SNR reading is replaced by the link's last good
#: reading before the link falls back to :data:`STALE_FALLBACK_GBPS`
STALE_HOLD_ROUNDS = 3
#: the rate a link whose telemetry stayed stale past the hold falls
#: back to (the paper's degraded 50 Gbps floor)
STALE_FALLBACK_GBPS = 50.0


def default_te_algorithm(topology: Topology, demands: Sequence[Demand]) -> TeSolution:
    """Min-penalty-at-max-throughput LP — the Theorem-1 objective."""
    return MultiCommodityLp(topology, demands).min_penalty_at_max_throughput().solution


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and jitter.

    ``max_retries`` is the number of attempts *beyond* the first; 0
    reproduces the unhardened fail-fast behaviour exactly.  Backoff
    delays are simulated controller wall-clock (reported, not added to
    link downtime: the link keeps its old configuration while the
    controller waits) and the jitter draw comes from a dedicated
    component rng, so enabling retries does not shift any other stream.
    """

    max_retries: int = 3
    base_delay_s: float = 1.0
    multiplier: float = 2.0
    jitter_frac: float = 0.1

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.base_delay_s < 0:
            raise ValueError("base_delay_s must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be at least 1")
        if not 0.0 <= self.jitter_frac < 1.0:
            raise ValueError("jitter_frac must be in [0, 1)")

    def delay_s(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff before retry number ``attempt + 1`` (0-based)."""
        delay = self.base_delay_s * self.multiplier**attempt
        if self.jitter_frac > 0.0:
            delay *= 1.0 + self.jitter_frac * float(rng.uniform(-1.0, 1.0))
        return delay


@dataclass(frozen=True)
class _ReconfigOutcome:
    """What one (possibly retried) BVT reconfiguration attempt did."""

    downtime_s: float
    ok: bool
    retries: int
    backoff_s: float


class _RoundDecision(NamedTuple):
    """What augment → TE → translate decided for one round's inputs."""

    translation: TranslationResult
    #: links of G' the TE ran on (the ``te.solve`` span's ``n_links``)
    n_te_links: int


@dataclass(frozen=True)
class LinkDowngrade:
    """A forced capacity reduction (SNR dropped)."""

    link_id: str
    old_capacity_gbps: float
    new_capacity_gbps: float

    @property
    def is_failure(self) -> bool:
        """True when even the slowest rung no longer closes."""
        return self.new_capacity_gbps <= 0.0


@dataclass(frozen=True)
class ControllerReport:
    """Everything one control-loop iteration did."""

    solution: TeSolution
    upgrades: tuple[LinkUpgrade, ...]
    downgrades: tuple[LinkDowngrade, ...]
    failed_links: tuple[str, ...]
    #: degraded links brought back toward their provisioned rate after
    #: their signal recovered (not TE-driven, unlike upgrades)
    restored_links: tuple[str, ...]
    reconfiguration_downtime_s: float
    #: traffic riding links while their BVT reconfigured (0 when the
    #: controller drained them first)
    traffic_disrupted_gbps: float = 0.0
    #: the TE state used while upgraded links were drained (only set
    #: when draining was enabled and upgrades happened)
    interim_solution: TeSolution | None = None
    #: maintenance batches the upgrades were executed in (one when
    #: the round upgraded anything, else none)
    n_reconfiguration_batches: int = 0
    #: reconfiguration/TE attempts beyond the first (retry accounting)
    n_retries: int = 0
    #: simulated controller wall-clock spent backing off between retries
    retry_backoff_s: float = 0.0
    #: links whose reconfiguration exhausted every retry this round
    reconfig_failed_links: tuple[str, ...] = ()
    #: True when the TE solve failed and the controller held the last
    #: known-good solution (or the empty one) instead
    te_fallback: bool = False
    #: links decided on held or fallen-back telemetry (NaN readings)
    stale_links: tuple[str, ...] = ()
    #: capacity the round intended to configure but could not (or
    #: conservatively withheld) because of faults
    fault_capacity_loss_gbps: float = 0.0
    #: links left above the capacity their decision-time SNR supports
    #: (audited every round; must stay empty)
    ber_violations: tuple[str, ...] = ()

    @property
    def throughput_gbps(self) -> float:
        return self.solution.total_allocated_gbps

    @property
    def n_capacity_changes(self) -> int:
        return (
            len(self.upgrades)
            + len(self.restored_links)
            + sum(1 for d in self.downgrades if not d.is_failure)
        )


class DynamicCapacityController:
    """Stateful controller over one physical topology."""

    def __init__(
        self,
        topology: Topology,
        *,
        policy: AdaptationPolicy | None = None,
        te_algorithm: TeAlgorithm = default_te_algorithm,
        procedure: ChangeProcedure = ChangeProcedure.EFFICIENT,
        drain_before_change: bool = False,
        seed: int = 0,
        retry: RetryPolicy | None = None,
    ):
        """``drain_before_change`` applies Section 4.2's consistent-update
        recipe: before reconfiguring a link's BVT, re-run the TE with
        that link removed and move traffic onto the interim state, so
        even a slow (standard-procedure) change disturbs no flows.  The
        link downtime is unchanged; the *traffic* disruption drops to
        zero, at the cost of one extra TE solve per round with upgrades.

        ``retry`` bounds how hard failed BVT reconfigurations and TE
        solves are retried (None = fail fast, the unhardened
        behaviour; inert on clean runs).  A NaN SNR reading marks the
        link stale: its last good reading is held for
        :data:`STALE_HOLD_ROUNDS` rounds, after which the link falls
        back to :data:`STALE_FALLBACK_GBPS` until telemetry returns.

        Upgrades are priced by :class:`TrafficDisruptionPenalty` (the
        paper's default: the traffic the change would disrupt).  The
        incremental TE accelerator (:mod:`repro.te.incremental`) is on
        from construction; :meth:`configure_te_cache` (which the runs'
        ``te_cache=`` argument calls) switches it.  Each controller owns
        its cache, so paired chaos runs and side-by-side policy
        comparisons stay isolated.
        """
        self.physical = topology
        self.policy = policy if policy is not None else walk_policy()
        self._te_base = te_algorithm
        self.te_algorithm = te_algorithm
        #: recent rounds' decisions (see _round_memo)
        self._rounds: RoundMemo | None = None
        self.configure_te_cache(True)
        self.procedure = procedure
        self.drain_before_change = drain_before_change
        self.retry = retry
        self._rng = np.random.default_rng(seed)
        #: jitter/backoff draws live on their own stream so enabling
        #: retries cannot shift the hardware-model draws
        self._backoff_rng = component_rng(seed, "controller.backoff")
        self._faults: Any | None = None
        #: the authoritative network record: per-link capacity,
        #: configured rate, telemetry health and BVT status, evolved
        #: through versioned copy-on-write transitions each round
        self.state_store = StateStore(
            NetworkState.from_topology(topology),
            name=f"controller:{topology.name}",
        )
        self._bvts: dict[str, Bvt] = {}
        self._traffic: dict[str, float] = {}
        self._last_solution: TeSolution | None = None
        self.total_downtime_s = 0.0
        #: durable write-ahead journal, when bound (see bind_journal)
        self._journal: StateJournal | None = None
        #: rounds sealed by _commit_round (the journal's round counter)
        self.rounds_completed = 0

    @property
    def table(self) -> ModulationTable:
        """The modulation ladder: the adaptation policy's."""
        return self.policy.table

    @property
    def state(self) -> NetworkState:
        """The latest committed :class:`~repro.state.model.NetworkState`."""
        return self.state_store.latest

    def _commit(self, updates: Mapping[str, Mapping[str, Any]], label: str) -> None:
        """Publish one batch of per-link changes as a state transition."""
        if updates:
            self.state_store.commit(updates, label=label)

    # -- TE solve cache -------------------------------------------------------

    def configure_te_cache(self, enabled: bool | None) -> None:
        """Switch the incremental TE solve cache on or off.

        ``None`` leaves the current wiring untouched (scenario helpers
        pass their own ``te_cache`` knob straight through).  Only the
        default objective is ever wrapped: a custom ``te_algorithm``
        runs unwrapped either way, and an explicitly injected
        :class:`~repro.te.incremental.CachedTeAlgorithm` is the
        caller's to manage.  Enabling twice keeps the existing cache
        (and its warmed structures); disabling restores the exact
        callable the controller was constructed with.
        """
        if enabled is None:
            return
        if enabled:
            if self._te_base is default_te_algorithm and not isinstance(
                self.te_algorithm, CachedTeAlgorithm
            ):
                self.te_algorithm = CachedTeAlgorithm()
        else:
            self.te_algorithm = self._te_base

    def _round_memo(self) -> RoundMemo | None:
        """The memo of recent rounds' decisions, or ``None``.

        Only the cached default TE algorithm gets one: a custom
        algorithm's purity is unknown, and ``te_cache=False`` computes
        every round.  The memo is rebuilt empty whenever the TE
        algorithm, ladder or physical topology it was filled under has
        been replaced.
        """
        if self._te_base is not default_te_algorithm or not isinstance(
            self.te_algorithm, CachedTeAlgorithm
        ):
            return None
        scope = (self.te_algorithm, self.table, self.physical)
        if self._rounds is None or not self._rounds.serves(scope):
            self._rounds = RoundMemo(scope)
        return self._rounds

    # -- fault injection ------------------------------------------------------

    def bind_faults(self, injector: Any) -> None:
        """Arm a :class:`~repro.faults.inject.FaultInjector` (or any
        object with ``bvt_verdict(link_id)`` / ``te_fails()``).

        Call before the first :meth:`step`; BVTs created afterwards get
        their fault hook automatically, and any already-created BVT is
        re-armed here.
        """
        self._faults = injector
        for link_id, bvt in self._bvts.items():
            bvt.fault_hook = self._bvt_fault_hook(link_id)

    def _bvt_fault_hook(self, link_id: str) -> Callable[[], str | None] | None:
        if self._faults is None:
            return None
        injector = self._faults
        return lambda: injector.bvt_verdict(link_id)

    # -- durability -----------------------------------------------------------

    def bind_journal(
        self,
        directory: Any,
        *,
        resume: bool | str = False,
    ) -> list[dict[str, Any]]:
        """Journal every state transition and round to ``directory``.

        Call before the first :meth:`step` (and *after*
        :meth:`bind_faults`, so a resumed run can restore the
        injector's sequential streams).  ``resume=False`` starts a
        fresh journal — refusing to clobber an existing one;
        ``resume=True`` recovers the directory and continues the
        crashed run mid-round; ``resume="auto"`` resumes exactly when
        a journal is already there.

        Returns the recovered runs' committed round payloads, oldest
        first (empty for a fresh journal): the host scenario replays
        their contexts/reports into its own accounting and skips that
        many rounds, after which the continued run is
        bit-identical to an uninterrupted one.
        """
        if self._journal is not None:
            raise RuntimeError("a journal is already bound")
        if resume == "auto":
            resume = journal_exists(directory)
        if not resume:
            if journal_exists(directory):
                raise FileExistsError(
                    f"{directory} already holds a journal; pass resume=True "
                    "(or 'auto') to continue it"
                )
            journal = StateJournal(directory)
            journal.start(self.state)
            self._journal = journal
            self.state_store.attach_journal(journal)
            return []
        journal, recovered = reopen(directory)
        # re-root the recovered snapshot on the controller's own
        # physical topology: link iteration order (LP variable layout)
        # must come from the object the rest of this run uses
        state = NetworkState(
            self.physical,
            dict(recovered.state.links),
            version=recovered.state.version,
            parent_version=recovered.state.parent_version,
            label=recovered.state.label,
        )
        self.state_store = StateStore(
            state, name=f"controller:{self.physical.name}"
        )
        self.state_store.attach_journal(journal)
        self._journal = journal
        self.rounds_completed = recovered.n_rounds
        last = recovered.last_round
        if last is not None:
            self._restore_runtime(last["runtime"], last["report"])
        return recovered.rounds

    def runtime_payload(self) -> dict[str, Any]:
        """Everything beyond the state a resumed run must restore.

        Journaled with every round frame: rng streams (exact
        generator states — JSON carries the big ints losslessly),
        traffic memory for the next round's penalties, downtime
        accounting, per-link BVT configured rates, and the fault
        injector's sequential streams when one is bound.
        """
        payload: dict[str, Any] = {
            "rng": self._rng.bit_generator.state,
            "backoff_rng": self._backoff_rng.bit_generator.state,
            "traffic": dict(self._traffic),
            "total_downtime_s": self.total_downtime_s,
            "bvts": {
                link_id: self._bvts[link_id].capacity_gbps
                for link_id in sorted(self._bvts)
            },
            "has_last_solution": self._last_solution is not None,
        }
        if self._faults is not None:
            snapshot = getattr(self._faults, "runtime_payload", None)
            if snapshot is not None:
                payload["faults"] = snapshot()
        return payload

    def _restore_runtime(
        self,
        runtime: Mapping[str, Any],
        last_report_payload: Mapping[str, Any] | None,
    ) -> None:
        self._rng = np.random.default_rng(0)
        self._rng.bit_generator.state = runtime["rng"]
        self._backoff_rng = np.random.default_rng(0)
        self._backoff_rng.bit_generator.state = runtime["backoff_rng"]
        self._traffic = {k: float(v) for k, v in runtime["traffic"].items()}
        self.total_downtime_s = float(runtime["total_downtime_s"])
        self._bvts = {}
        for link_id, capacity in runtime["bvts"].items():
            bvt = Bvt(table=self.table, initial_capacity_gbps=capacity)
            bvt.fault_hook = self._bvt_fault_hook(link_id)
            self._bvts[link_id] = bvt
        if runtime["has_last_solution"] and last_report_payload is not None:
            # after any committed round, _last_solution is exactly the
            # round's reported solution (step 7) — unless that round
            # fell back with no prior solution, in which case the
            # marker is False and the fallback stays empty on resume
            self._last_solution = restore_solution(
                last_report_payload["solution"]
            )
        if "faults" in runtime and self._faults is not None:
            restore = getattr(self._faults, "restore_runtime", None)
            if restore is not None:
                restore(runtime["faults"])

    def _commit_round(
        self, report: ControllerReport, context: Mapping[str, Any]
    ) -> None:
        """Seal one round: journal the round frame, honour crash seams.

        The round frame is the durability point — everything before it
        (the round's state transitions) only *counts* once this frame
        lands.  A bound ``controller.crash`` fault fires here:
        ``pre-commit`` dies before the frame (the round rolls back on
        recovery), ``mid-write`` tears the frame on disk, and
        ``post-commit`` dies after it (the round survives).  Seams are
        honoured even with no journal bound, so crash faults can test
        unjournaled hosts too.
        """
        round_index = self.rounds_completed
        seam: str | None = None
        if self._faults is not None:
            crash = getattr(self._faults, "crash_seam", None)
            if crash is not None:
                seam = crash(round_index)
        if seam == "pre-commit":
            raise ControllerCrash(round_index, seam)
        if self._journal is not None:
            payload = {
                "round": round_index,
                "context": dict(context),
                "report": report_payload(report),
                "runtime": self.runtime_payload(),
            }
            if seam == "mid-write":
                self._journal.write_torn_round(payload)
                raise ControllerCrash(round_index, seam)
            self._journal.commit_round(payload)
        elif seam == "mid-write":
            raise ControllerCrash(round_index, seam)
        self.rounds_completed += 1
        if seam == "post-commit":
            raise ControllerCrash(round_index, seam)
        if self._journal is not None:
            self._journal.maybe_checkpoint(self.state, self.rounds_completed)

    # -- hardware access ----------------------------------------------------

    def _bvt(self, link_id: str) -> Bvt:
        if link_id not in self._bvts:
            link = self.state.link(link_id)
            initial = link.capacity_gbps
            if initial <= 0:
                # link is dark; model the transceiver at its provisioned rate
                initial = link.configured_gbps
            if initial not in self.table.capacities_gbps:
                raise ValueError(
                    f"link {link_id} configured at {initial} Gbps, which is "
                    f"not on the modulation ladder {self.table.capacities_gbps}"
                )
            bvt = Bvt(table=self.table, initial_capacity_gbps=initial)
            bvt.fault_hook = self._bvt_fault_hook(link_id)
            self._bvts[link_id] = bvt
        return self._bvts[link_id]

    def _bvt_status(self, link_id: str) -> dict[str, Any]:
        """The link's BVT status fields after a successful reconfigure."""
        bvt = self._bvts[link_id]
        return {"bvt_gbps": bvt.capacity_gbps, "modulation": bvt.format.name}

    def _reconfigure(self, link_id: str, capacity_gbps: float) -> _ReconfigOutcome:
        """Drive the link's BVT to ``capacity_gbps``, retrying failures.

        A failed attempt consumes no downtime (the BVT refuses before
        any timed step) and leaves the link at its old configuration;
        retries back off per :attr:`retry`.  With no retry policy the
        first failure is final — the unhardened fail-fast behaviour.
        """
        with _trace.span(
            "bvt.reconfigure", link=link_id, target_gbps=capacity_gbps
        ) as sp:
            outcome = self._reconfigure_attempts(link_id, capacity_gbps)
            if sp is not None:
                sp.set(
                    ok=outcome.ok,
                    retries=outcome.retries,
                    downtime_s=outcome.downtime_s,
                    backoff_s=outcome.backoff_s,
                )
            if outcome.ok:
                _metrics.histogram("controller.reconfig_downtime_s").observe(
                    outcome.downtime_s
                )
            else:
                _metrics.counter("controller.reconfig_failures").inc()
            return outcome

    def _reconfigure_attempts(
        self, link_id: str, capacity_gbps: float
    ) -> _ReconfigOutcome:
        attempts = 1 + (self.retry.max_retries if self.retry is not None else 0)
        retries = 0
        backoff_s = 0.0
        for attempt in range(attempts):
            try:
                result = self._bvt(link_id).change_modulation(
                    capacity_gbps, self._rng, procedure=self.procedure
                )
            except BvtFaultError:
                if attempt + 1 >= attempts:
                    return _ReconfigOutcome(0.0, False, retries, backoff_s)
                retries += 1
                delay_s = self.retry.delay_s(attempt, self._backoff_rng)
                backoff_s += delay_s
                _trace.point(
                    "bvt.retry", link=link_id, attempt=attempt, backoff_s=delay_s
                )
            else:
                return _ReconfigOutcome(result.downtime_s, True, retries, backoff_s)
        raise AssertionError("unreachable")

    def _solve_te(
        self,
        solve: Callable[[], _T],
        *,
        n_links: int,
        n_demands: int,
        reused: bool = False,
    ) -> tuple[_T | None, int, float]:
        """One TE solve with fault injection, retry and backoff.

        ``solve`` runs the TE algorithm or, on a ``reused`` round, hands
        back the earlier round's decision: the fault gate, the retries
        and their backoff draws are the same either way.  Returns
        ``(result | None, retries, backoff_s)``; ``None`` means every
        attempt raised and the caller must degrade.

        Retry attempts within a round reuse the already-assembled LP:
        the injected fault gate raises *before* the algorithm runs, and
        a genuine :class:`~repro.te.solution.TeSolverError` from the
        cached default algorithm leaves the assembled structure in the
        controller's :class:`~repro.te.incremental.TeSolveCache` — so a
        retried round pays at most one assembly, not one per attempt.
        """
        with _trace.span("te.solve", n_links=n_links, n_demands=n_demands) as sp:
            result, retries, backoff_s = self._solve_te_attempts(solve)
            if sp is not None:
                sp.set(
                    ok=result is not None,
                    retries=retries,
                    backoff_s=backoff_s,
                )
                if reused:
                    sp.set(reused=True)
            if result is None:
                _metrics.counter("controller.te_fallbacks").inc()
            return result, retries, backoff_s

    def _solve_te_attempts(
        self, solve: Callable[[], _T]
    ) -> tuple[_T | None, int, float]:
        attempts = 1 + (self.retry.max_retries if self.retry is not None else 0)
        retries = 0
        backoff_s = 0.0
        for attempt in range(attempts):
            try:
                if self._faults is not None and self._faults.te_fails():
                    raise TeSolverError("injected TE solver failure")
                return solve(), retries, backoff_s
            except TeSolverError:
                if attempt + 1 >= attempts:
                    return None, retries, backoff_s
                retries += 1
                delay_s = self.retry.delay_s(attempt, self._backoff_rng)
                backoff_s += delay_s
                _trace.point("te.retry", attempt=attempt, backoff_s=delay_s)
        raise AssertionError("unreachable")

    def _working_topology(self, rows: Sequence[tuple[str, float, float]]) -> Topology:
        """The graph Algorithm 1 augments: the physical nodes and one
        link per ``(link_id, capacity, headroom)`` row."""
        working = Topology(f"{self.physical.name}@step")
        for node in self.physical.nodes:
            working.add_node(node)
        for link_id, capacity, headroom in rows:
            link = self.physical.link(link_id)
            working.add_link(
                link.src,
                link.dst,
                capacity,
                headroom_gbps=headroom,
                weight=link.weight,
                link_id=link_id,
            )
        return working

    # -- the control loop -----------------------------------------------------

    def step(
        self,
        snr_by_link: Mapping[str, float],
        demands: Sequence[Demand],
        *,
        context: Mapping[str, Any] | None = None,
    ) -> ControllerReport:
        """One TE recomputation round.

        Args:
            snr_by_link: current SNR (dB) per physical link id; links
                not mentioned are assumed healthy at their capacity.
                A NaN reading marks the link's telemetry stale and
                triggers hold-then-fallback handling (see
                :data:`STALE_HOLD_ROUNDS`).
            demands: the traffic matrix for this round.
            context: the host's own record of this round (sample time,
                round counters — whatever it needs back to resume),
                journaled with the round frame and handed back by
                :meth:`bind_journal` on a resume.
        """
        _metrics.counter("controller.rounds").inc()
        with _trace.span("controller.round") as sp:
            report = self._step_round(snr_by_link, demands)
            if sp is not None:
                sp.set(
                    throughput_gbps=report.throughput_gbps,
                    n_upgrades=len(report.upgrades),
                    n_downgrades=len(report.downgrades),
                    n_retries=report.n_retries,
                    downtime_s=report.reconfiguration_downtime_s,
                    te_fallback=report.te_fallback,
                )
        self._commit_round(report, context or {})
        return report

    def _step_round(
        self,
        snr_by_link: Mapping[str, float],
        demands: Sequence[Demand],
    ) -> ControllerReport:
        downtime = 0.0
        n_retries = 0
        backoff_s = 0.0
        fault_loss = 0.0
        downgrades: list[LinkDowngrade] = []
        failed: list[str] = []
        restored: list[str] = []
        reconfig_failed: list[str] = []

        # 0. stale-telemetry screening: a NaN reading is replaced by the
        # link's last good reading for up to ``STALE_HOLD_ROUNDS``
        # rounds (hold-last-safe), then by the safe-floor fallback
        # threshold; a dark link never restores on a stale reading.
        # The screened readings become one batched "telemetry" state
        # transition (per-link decisions are independent, so batching
        # cannot change any of them).
        effective: dict[str, float] = {}
        stale: list[str] = []
        telemetry: dict[str, dict[str, Any]] = {}
        state = self.state
        for link_id, snr in snr_by_link.items():
            link = state.links.get(link_id)
            if link is None:
                raise KeyError(f"unknown link {link_id!r}")
            if math.isnan(snr):
                stale.append(link_id)
                age = link.stale_rounds + 1
                telemetry[link_id] = {"snr_db": snr, "stale_rounds": age}
                if link.capacity_gbps <= 0:
                    effective[link_id] = LOSS_OF_LIGHT_SNR_DB
                elif age <= STALE_HOLD_ROUNDS and link.last_good_snr_db is not None:
                    effective[link_id] = link.last_good_snr_db
                else:
                    effective[link_id] = self.table.required_snr(
                        STALE_FALLBACK_GBPS
                    )
            else:
                telemetry[link_id] = {
                    "snr_db": snr,
                    "last_good_snr_db": snr,
                    "stale_rounds": 0,
                }
                effective[link_id] = snr
        stale_set = frozenset(stale)
        self._commit(telemetry, "telemetry")

        # 1-2. forced downgrades / failures, and restoration of links
        # whose light came back.  Every link is visited at most once
        # and no decision reads another link's new capacity, so the
        # writes batch into one "adapt" transition committed after the
        # loop; reads go against the post-telemetry snapshot — the
        # same values the sequential writes exposed.
        state = self.state
        adapt: dict[str, dict[str, Any]] = {}
        for link_id, snr in effective.items():
            link = state.links[link_id]
            current = link.capacity_gbps
            configured = link.configured_gbps
            if current <= 0:
                # the link is down; bring it back at a safe rate if the
                # signal recovered (no downtime: it was dark anyway)
                feasible = self.table.feasible_capacity(snr)
                restore = (
                    feasible
                    if self.policy.allow_upgrades
                    else min(feasible, configured)
                )
                if restore > 0:
                    outcome = self._reconfigure(link_id, restore)
                    n_retries += outcome.retries
                    backoff_s += outcome.backoff_s
                    if outcome.ok:
                        adapt[link_id] = {
                            "capacity_gbps": restore,
                            **self._bvt_status(link_id),
                        }
                        restored.append(link_id)
                    else:
                        reconfig_failed.append(link_id)
                        fault_loss += restore
                continue
            target = self.policy.target_capacity_gbps(current, snr)
            if target < current:
                if link_id in stale_set:
                    fault_loss += current - target
                if target > 0:
                    outcome = self._reconfigure(link_id, target)
                    n_retries += outcome.retries
                    backoff_s += outcome.backoff_s
                    if outcome.ok:
                        downtime += outcome.downtime_s
                        downgrades.append(LinkDowngrade(link_id, current, target))
                        adapt[link_id] = {
                            "capacity_gbps": target,
                            **self._bvt_status(link_id),
                        }
                    else:
                        # the BVT will not re-modulate and the current
                        # rate is SNR-infeasible: take the link dark
                        # rather than hold it above its BER floor
                        downgrades.append(LinkDowngrade(link_id, current, 0.0))
                        failed.append(link_id)
                        reconfig_failed.append(link_id)
                        fault_loss += target
                        adapt[link_id] = {"capacity_gbps": 0.0}
                else:
                    downgrades.append(LinkDowngrade(link_id, current, target))
                    failed.append(link_id)
                    adapt[link_id] = {"capacity_gbps": target}
            elif current < configured:
                # a previously-flapped link: recovery to the provisioned
                # rate is an operator invariant, not a TE decision (going
                # *beyond* the provisioned rate stays demand-driven).
                # The policy's hysteresis margin protects against
                # flapping right back.
                guarded = self.table.feasible_capacity(
                    snr - self.policy.upgrade_margin_db
                )
                restore = min(max(guarded, current), configured)
                if restore > current:
                    outcome = self._reconfigure(link_id, restore)
                    n_retries += outcome.retries
                    backoff_s += outcome.backoff_s
                    if outcome.ok:
                        downtime += outcome.downtime_s
                        adapt[link_id] = {
                            "capacity_gbps": restore,
                            **self._bvt_status(link_id),
                        }
                        restored.append(link_id)
                    else:
                        reconfig_failed.append(link_id)
                        fault_loss += restore - current
        self._commit(adapt, "adapt")

        # 3. the working topology at post-downgrade capacities, with
        #    headroom: one (link_id, capacity, headroom) row per live
        #    real link
        rows: list[tuple[str, float, float]] = []
        links = self.state.links
        for link in self.physical.real_links():
            capacity = links[link.link_id].capacity_gbps
            if capacity <= 0:
                continue  # link is down this round
            snr = effective.get(link.link_id)
            headroom = (
                self.policy.headroom_gbps(capacity, snr)
                if snr is not None
                else 0.0
            )
            rows.append((link.link_id, capacity, headroom))

        # 4-5. augment, run the unmodified TE algorithm and translate its
        #      output — or, when the rows, the traffic memory and the
        #      demands repeat a recent round's, reuse that round's
        #      decision behind the same fault gate.  If every attempt
        #      raises, degrade to the last known-good solution (or the
        #      empty allocation) rather than crashing the loop
        rounds = self._round_memo()
        key = decision = working = None
        if rounds is not None:
            key = round_key(rows, self._traffic, demands)
            decision = rounds.get(key)
        if decision is not None:
            translation, te_retries, te_backoff = self._solve_te(
                lambda: decision.translation,
                n_links=decision.n_te_links,
                n_demands=len(demands),
                reused=True,
            )
        else:
            working = self._working_topology(rows)
            augmented = augment_topology(
                working,
                penalty_policy=_PENALTY,
                current_traffic=self._traffic,
            )
            te_solution, te_retries, te_backoff = self._solve_te(
                lambda: self.te_algorithm(augmented.topology, demands),
                n_links=len(augmented.topology.links),
                n_demands=len(demands),
            )
            translation = None
            if te_solution is not None:
                translation = translate(augmented, te_solution, table=self.table)
                if rounds is not None:
                    rounds.put(
                        key,
                        _RoundDecision(translation, len(augmented.topology.links)),
                    )
        n_retries += te_retries
        backoff_s += te_backoff
        te_fallback = translation is None

        if te_fallback:
            # hold: no upgrades, keep the traffic memory, reuse the
            # last solution's allocation figures for reporting
            held = (
                self._last_solution
                if self._last_solution is not None
                else empty_solution(
                    working if working is not None else self._working_topology(rows),
                    demands,
                )
            )
            solution = held
            upgrades: tuple[LinkUpgrade, ...] = ()
            interim = None
            disrupted = 0.0
            n_batches = 0
        else:
            # 6. execute the upgrades; optionally drain first so slow
            #    reconfigurations hit no traffic (Section 4.2)
            solution = translation.solution
            upgrades = translation.upgrades
            interim = None
            disrupted = sum(u.disrupted_traffic_gbps for u in upgrades)
            if self.drain_before_change and upgrades:
                if working is None:
                    working = self._working_topology(rows)
                drained = working.copy(f"{working.name}-drained")
                for upgrade in upgrades:
                    drained.remove_link(upgrade.link_id)
                interim, drain_retries, drain_backoff = self._solve_te(
                    lambda: self.te_algorithm(drained, demands),
                    n_links=len(drained.links),
                    n_demands=len(demands),
                )
                n_retries += drain_retries
                backoff_s += drain_backoff
                if interim is not None:
                    disrupted = 0.0  # traffic moved off before the BVTs touched
                # else: drain solve failed — proceed undrained, the
                # original disruption estimate stands
            n_batches = 1 if upgrades else 0
            # one upgrade per link, so these writes batch into one
            # "upgrades" transition; the held-rate read on a refused
            # upgrade sees the post-adapt snapshot, which no upgrade
            # before it in the batch can have touched
            executed: dict[str, dict[str, Any]] = {}
            for upgrade in upgrades:
                outcome = self._reconfigure(
                    upgrade.link_id, upgrade.new_capacity_gbps
                )
                n_retries += outcome.retries
                backoff_s += outcome.backoff_s
                if outcome.ok:
                    downtime += outcome.downtime_s
                    executed[upgrade.link_id] = {
                        "capacity_gbps": upgrade.new_capacity_gbps,
                        **self._bvt_status(upgrade.link_id),
                    }
                else:
                    # upgrade refused: hold the current (safe) rate
                    reconfig_failed.append(upgrade.link_id)
                    fault_loss += (
                        upgrade.new_capacity_gbps
                        - self.state.links[upgrade.link_id].capacity_gbps
                    )
            self._commit(executed, "upgrades")

            # 7. remember traffic for the next round's penalty computation
            self._traffic = {
                l.link_id: solution.link_flow(l.link_id)
                for l in solution.topology.links
            }
            self._last_solution = solution

        self.total_downtime_s += downtime

        # 8. BER-feasibility audit: no link may sit above the capacity
        #    its decision-time (effective) SNR supports
        links = self.state.links
        violations = tuple(
            link_id
            for link_id, snr in effective.items()
            if links[link_id].capacity_gbps > self.table.feasible_capacity(snr) + 1e-9
        )

        return ControllerReport(
            solution=solution,
            upgrades=upgrades,
            downgrades=tuple(downgrades),
            failed_links=tuple(failed),
            restored_links=tuple(restored),
            reconfiguration_downtime_s=downtime,
            traffic_disrupted_gbps=disrupted,
            interim_solution=interim,
            n_reconfiguration_batches=n_batches,
            n_retries=n_retries,
            retry_backoff_s=backoff_s,
            reconfig_failed_links=tuple(reconfig_failed),
            te_fallback=te_fallback,
            stale_links=tuple(stale),
            fault_capacity_loss_gbps=fault_loss,
            ber_violations=violations,
        )
