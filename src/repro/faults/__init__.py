"""Deterministic, seed-keyed fault injection for the control loop.

The paper's §2 message is that *degraded* operation is the common case:
SNR wanders, hardware balks, software times out.  This package makes
that regime first-class in the reproduction:

* :mod:`repro.faults.spec` — :class:`FaultSpec`/:class:`FaultPlan`, the
  declarative description of what can go wrong (telemetry dropouts,
  stuck/corrupted/delayed readings, BVT reconfiguration failures and
  forced laser power-cycles, TE-solver exceptions) and how often;
* :mod:`repro.faults.inject` — :class:`FaultInjector`, which turns a
  plan into live perturbations at the telemetry / hardware / solver
  seams, plus the :class:`FaultyTelemetryFeed` wrapper;
* :mod:`repro.faults.chaos` — the chaos harness behind ``repro chaos``:
  sweeps fault intensity and asserts the hardened controller's
  invariants (BER feasibility, bit-reproducibility, graceful
  degradation).

Everything is keyed on :func:`repro.seeds.component_seed` streams, so a
given ``(plan, seed)`` produces byte-identical faults on every run —
chaos results are as replayable as clean ones.
"""
