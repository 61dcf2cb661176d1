"""Runtime fault injection: wrapping sources and arming hooks.

:class:`FaultInjector` turns a :class:`~repro.faults.spec.FaultPlan`
into live perturbations at the three seams the system exposes:

* **telemetry** — :meth:`FaultInjector.wrap_feed` wraps a
  :class:`~repro.telemetry.traces.TelemetryFeed` in a
  :class:`FaultyTelemetryFeed` that serves dropped (NaN), stuck,
  delayed and corrupted readings;
* **hardware** — :meth:`FaultInjector.bvt_verdict` is the failure hook
  :class:`~repro.bvt.transceiver.Bvt` consults before each modulation
  change (fail outright, or fall back to the laser power-cycle path);
* **solver** — :meth:`FaultInjector.te_fails` decides whether a TE
  solve raises :class:`~repro.te.solution.TeSolverError` this attempt.

Determinism: telemetry faults are *positionally* keyed — windows are
drawn once per ``(spec, link)`` from a dedicated component stream, and
per-sample corruption uses an rng keyed on ``(seed, spec, link,
sample-index)`` — so reading the feed in any order (full walks,
strided TE rounds, random access) yields the same faulted values.
Hook draws (``bvt``/``te``) are sequential per component stream, which
is deterministic because a controller run steps its rounds one after
another, in sample order.  The injector carries per-kind counters (:attr:`counts`) so a
run can report its fault exposure.
"""

from __future__ import annotations

import bisect
from typing import Iterator, Mapping

import numpy as np

from repro.faults.spec import FaultPlan, FaultSpec
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.seeds import component_rng, component_seed
from repro.telemetry.traces import TelemetryFeed, TelemetrySample


def as_injector(faults: "FaultPlan | FaultInjector | None") -> "FaultInjector | None":
    """Normalise the simulators' ``faults=`` knob.

    ``None`` passes through (the zero-cost disabled path), a
    :class:`~repro.faults.spec.FaultPlan` is armed into a fresh
    :class:`FaultInjector`, and an existing injector is reused as-is
    (so a caller can inspect :attr:`FaultInjector.counts` afterwards).
    """
    if faults is None:
        return None
    if isinstance(faults, FaultInjector):
        return faults
    if isinstance(faults, FaultPlan):
        return FaultInjector(faults)
    raise TypeError(
        f"faults must be a FaultPlan, FaultInjector or None, "
        f"got {type(faults).__name__}"
    )


class FaultInjector:
    """Live injection state for one plan over one run."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        #: observed fault applications by kind (accounting, not control)
        self.counts: dict[str, int] = {}
        self._bvt_rngs: dict[str, np.random.Generator] = {}
        self._te_rng = component_rng(plan.seed, "faults.te")

    def count(self, kind: str, n: int = 1) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + n
        # observability: every activation is a labelled counter and,
        # when a tracer is active, a point event on the run timeline
        _metrics.counter("faults.activated", kind=kind).inc(n)
        _trace.point("fault.activated", kind=kind, n=n)

    # -- telemetry seam -----------------------------------------------------

    def wrap_feed(self, feed: TelemetryFeed) -> TelemetryFeed:
        """The feed as the controller will see it under this plan."""
        if not self.plan.has_telemetry_faults:
            return feed
        return FaultyTelemetryFeed(feed, self)

    # -- hardware seam ------------------------------------------------------

    def bvt_verdict(self, link_id: str) -> str | None:
        """One pre-change draw: ``None`` (proceed), ``"fail"`` or
        ``"power_cycle"``."""
        p_fail = self.plan.probability("bvt.failure", link_id)
        p_cycle = self.plan.probability("bvt.power_cycle", link_id)
        if p_fail <= 0.0 and p_cycle <= 0.0:
            return None
        if link_id not in self._bvt_rngs:
            self._bvt_rngs[link_id] = component_rng(
                self.plan.seed, f"faults.bvt.{link_id}"
            )
        u = float(self._bvt_rngs[link_id].random())
        if u < p_fail:
            self.count("bvt.failure")
            return "fail"
        if u < p_fail + p_cycle:
            self.count("bvt.power_cycle")
            return "power_cycle"
        return None

    # -- solver seam --------------------------------------------------------

    def te_fails(self) -> bool:
        """One per-attempt draw for the TE entry point."""
        p = self.plan.probability("te.exception")
        if p <= 0.0:
            return False
        if float(self._te_rng.random()) < p:
            self.count("te.exception")
            return True
        return False

    # -- crash seam ---------------------------------------------------------

    def crash_seam(self, round_index: int) -> str | None:
        """Where a ``controller.crash`` fault strikes this round, if at all.

        Consulted by the controller's round-commit protocol; purely
        deterministic (round index match, no draw), so crash faults
        perturb no other stream.
        """
        for spec in self.plan.specs:
            if spec.kind == "controller.crash" and spec.crash_round == round_index:
                self.count("controller.crash")
                return spec.crash_seam
        return None

    # -- crash recovery -----------------------------------------------------

    def runtime_payload(self) -> dict[str, object]:
        """The injector's *sequential* streams, for the journal.

        Only the ``bvt.*``/``te.*`` draws advance one-at-a-time with
        the run and must be restored exactly; telemetry faults are
        positionally keyed (and their counts are naturally re-counted
        when a resumed run re-reads the feed from the start), so they
        need nothing here.
        """
        return {
            "te_rng": self._te_rng.bit_generator.state,
            "bvt_rngs": {
                link_id: rng.bit_generator.state
                for link_id, rng in sorted(self._bvt_rngs.items())
            },
            "counts": {
                kind: n
                for kind, n in sorted(self.counts.items())
                if kind.startswith(("bvt.", "te."))
            },
        }

    def restore_runtime(self, payload: Mapping[str, object]) -> None:
        """Set (never add to) the sequential streams from a journal."""
        self._te_rng = np.random.default_rng(0)
        self._te_rng.bit_generator.state = payload["te_rng"]
        self._bvt_rngs = {}
        for link_id, state in payload["bvt_rngs"].items():
            rng = np.random.default_rng(0)
            rng.bit_generator.state = state
            self._bvt_rngs[link_id] = rng
        for kind, n in payload["counts"].items():
            self.counts[kind] = int(n)


def _draw_windows(
    spec: FaultSpec,
    spec_index: int,
    link_id: str,
    *,
    seed: int,
    start_s: float,
    duration_s: float,
) -> tuple[list[float], list[float]]:
    """Sorted ``(starts, ends)`` of one spec's windows on one link.

    Window count is Poisson in ``rate_per_day`` over the horizon,
    starts are uniform, lengths exponential with mean ``duration_s`` —
    all from one component stream, so the windows depend only on
    ``(plan seed, spec, link)``, never on read order.
    """
    if spec.rate_per_day <= 0.0 or duration_s <= 0.0:
        return [], []
    rng = component_rng(seed, f"faults.{spec.kind}[{spec_index}].{link_id}")
    expected = spec.rate_per_day * duration_s / 86_400.0
    n = int(rng.poisson(expected))
    if n == 0:
        return [], []
    starts = np.sort(start_s + duration_s * rng.random(n))
    lengths = rng.exponential(spec.duration_s, size=n) if spec.duration_s else np.zeros(n)
    return [float(t) for t in starts], [float(t + d) for t, d in zip(starts, lengths)]


class _WindowSet:
    """Membership test over one link's sorted fault windows."""

    def __init__(self, starts: list[float], ends: list[float]):
        self.starts = starts
        self.ends = ends

    def __bool__(self) -> bool:
        return bool(self.starts)

    def covers(self, time_s: float) -> bool:
        i = bisect.bisect_right(self.starts, time_s) - 1
        return i >= 0 and time_s < self.ends[i]


class FaultyTelemetryFeed(TelemetryFeed):
    """A :class:`TelemetryFeed` serving its base feed through the plan.

    Per-sample, per-link, faults compose in a fixed order (documented so
    overlap behaviour is part of the contract):

    1. **delay** — inside a delay window the value is re-read from
       ``delay_samples`` grid points earlier (clamped at the start);
    2. **stuck** — inside a stuck window the value is frozen at the
       last pre-window reading;
    3. **corrupt** — a Bernoulli hit adds a Gaussian offset;
    4. **dropout** — inside a dropout window the value is NaN,
       overriding everything else.

    The wrapper validates exactly like the base feed (same timebase,
    same links) and keeps the unfaulted feed as :attr:`base`.
    """

    def __init__(self, base: TelemetryFeed, injector: FaultInjector):
        super().__init__(base.traces_by_link)
        self.base = base
        self.injector = injector
        plan = injector.plan
        tb = base.timebase
        self._windows: dict[str, dict[str, _WindowSet]] = {}
        self._delay_by_link: dict[str, int] = {}
        self._corrupt_specs: list[tuple[int, FaultSpec]] = [
            (i, s)
            for i, s in enumerate(plan.specs)
            if s.kind == "telemetry.corrupt"
        ]
        for kind in ("telemetry.dropout", "telemetry.stuck", "telemetry.delay"):
            per_link: dict[str, _WindowSet] = {}
            for link_id in base.traces_by_link:
                starts: list[float] = []
                ends: list[float] = []
                for i, s in enumerate(plan.specs):
                    if s.kind != kind or not s.applies_to(link_id):
                        continue
                    w_starts, w_ends = _draw_windows(
                        s, i, link_id,
                        seed=plan.seed,
                        start_s=tb.start_s,
                        duration_s=tb.duration_s,
                    )
                    starts.extend(w_starts)
                    ends.extend(w_ends)
                    if kind == "telemetry.delay":
                        self._delay_by_link[link_id] = max(
                            self._delay_by_link.get(link_id, 0), s.delay_samples
                        )
                order = sorted(range(len(starts)), key=starts.__getitem__)
                per_link[link_id] = _WindowSet(
                    [starts[j] for j in order], [ends[j] for j in order]
                )
            self._windows[kind] = per_link

    # -- the faulted view ---------------------------------------------------

    def _true_value(self, link_id: str, index: int) -> float:
        return float(self.base.traces_by_link[link_id].snr_db[index])

    def _corrupt(self, link_id: str, index: int, value: float) -> float:
        for spec_index, spec in self._corrupt_specs:
            if spec.probability <= 0.0 or not spec.applies_to(link_id):
                continue
            rng = np.random.default_rng(
                component_seed(
                    self.injector.plan.seed,
                    f"faults.telemetry.corrupt[{spec_index}].{link_id}",
                    offset=index,
                )
            )
            if float(rng.random()) < spec.probability:
                value += spec.magnitude_db * float(rng.standard_normal())
                self.injector.count("telemetry.corrupt")
        return value

    def _faulted_value(self, link_id: str, index: int, time_s: float) -> float:
        value = self._true_value(link_id, index)
        delay_ws = self._windows["telemetry.delay"].get(link_id)
        if delay_ws and delay_ws.covers(time_s):
            shifted = max(index - self._delay_by_link.get(link_id, 0), 0)
            if shifted != index:
                value = self._true_value(link_id, shifted)
                self.injector.count("telemetry.delay")
        stuck_ws = self._windows["telemetry.stuck"].get(link_id)
        if stuck_ws and stuck_ws.covers(time_s):
            start = bisect.bisect_right(stuck_ws.starts, time_s) - 1
            tb = self.timebase
            first_inside = int(
                np.ceil((stuck_ws.starts[start] - tb.start_s) / tb.interval_s)
            )
            frozen_at = max(min(first_inside, index) - 1, 0)
            value = self._true_value(link_id, frozen_at)
            self.injector.count("telemetry.stuck")
        value = self._corrupt(link_id, index, value)
        drop_ws = self._windows["telemetry.dropout"].get(link_id)
        if drop_ws and drop_ws.covers(time_s):
            self.injector.count("telemetry.dropout")
            return float("nan")
        return value

    def _transform(self, sample: TelemetrySample) -> TelemetrySample:
        observed = {
            link_id: self._faulted_value(link_id, sample.index, sample.time_s)
            for link_id in sample.snr_db
        }
        return TelemetrySample(
            index=sample.index,
            time_s=sample.time_s,
            snr_db=observed,
        )

    def sample(self, index: int) -> TelemetrySample:
        return self._transform(self.base.sample(index))

    def iter_samples(
        self, *, stride: int = 1, max_samples: int | None = None
    ) -> Iterator[TelemetrySample]:
        for sample in self.base.iter_samples(stride=stride, max_samples=max_samples):
            yield self._transform(sample)

