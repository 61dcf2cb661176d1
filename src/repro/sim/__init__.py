"""End-to-end simulations.

* :mod:`~repro.sim.availability` — Section 2.2's availability claim:
  replay SNR traces under today's binary up/down rule vs. dynamic
  capacities, count the failures that become mere capacity flaps;
* :mod:`~repro.sim.throughput` — the abstract's "simulate the
  throughput gains from deploying our approach": TE throughput on the
  static 100 Gbps network vs. the SNR-adaptive one, swept over demand
  scale;
* :mod:`~repro.sim.replay` — drive the full
  :class:`~repro.core.controller.DynamicCapacityController` loop with
  synthetic telemetry over time.
"""
