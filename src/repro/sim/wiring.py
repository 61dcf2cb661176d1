"""The how-to-run knobs of a controller run, bound once.

:func:`~repro.sim.replay.replay_controller` and
:func:`~repro.sim.reactive.reactive_replay` both run through
:func:`controller_run`, so they set up and tear down a run the same way.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.core.controller import DynamicCapacityController
from repro.engine.clock import SimClock
from repro.faults.inject import FaultInjector, as_injector
from repro.faults.spec import FaultPlan
from repro.obs import trace as _trace
from repro.telemetry.traces import TelemetryFeed


@contextmanager
def controller_run(
    controller: DynamicCapacityController,
    feed: TelemetryFeed,
    *,
    te_interval_s: float,
    faults: FaultPlan | FaultInjector | None = None,
    te_cache: bool | None = None,
    journal_dir: "str | None" = None,
    resume: bool | str = False,
) -> Iterator[tuple[TelemetryFeed, SimClock, list[dict[str, Any]]]]:
    """Bind the run knobs to ``controller``; yield ``(feed, clock, restored)``.

    Args:
        te_interval_s: the run's TE period; it cannot be finer than
            the telemetry.
        faults: a :class:`~repro.faults.spec.FaultPlan` (or armed
            :class:`~repro.faults.inject.FaultInjector`): the yielded
            feed is wrapped and the controller's BVT/TE/crash hooks are
            armed.  The only knob that changes results; ``None`` is a
            byte-identical no-op.
        te_cache: ``False`` turns the controller's incremental TE cache
            off, ``True`` on; ``None`` leaves it as constructed.
        journal_dir: journal every state transition and round here (see
            :meth:`~repro.core.controller.DynamicCapacityController.bind_journal`).
        resume: with ``journal_dir``, continue a crashed run: the
            committed rounds come back as ``restored`` (oldest first)
            for the run to replay into its accounting.  ``"auto"``
            resumes exactly when the directory holds a journal.

    Every input is validated before the journal writes anything.  The
    body walks the feed, advancing the yielded clock to each sample's
    time (the active tracer reads it for the run's duration).  The
    journal is closed on the way out, even when the body raised.
    """
    if te_interval_s < feed.timebase.interval_s:
        raise ValueError("TE interval cannot be finer than the telemetry")
    injector = as_injector(faults)
    controller.configure_te_cache(te_cache)
    if injector is not None:
        feed = injector.wrap_feed(feed)
        controller.bind_faults(injector)
    restored: list[dict[str, Any]] = []
    if journal_dir is not None:
        restored = controller.bind_journal(journal_dir, resume=resume)
    clock = SimClock(start_s=feed.timebase.start_s)
    try:
        with _trace.sim_clock(clock):
            yield feed, clock, restored
    finally:
        if journal_dir is not None:
            controller._journal.close()
