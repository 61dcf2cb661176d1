"""Bandwidth-variable transceiver (BVT) simulator.

Section 3.1 of the paper builds a testbed around an Acacia flex-rate
transceiver, drives modulation changes over its MDIO management
interface, and measures how long a capacity change takes.  This package
is a discrete-event model of that hardware (driven directly, without
the register front-end):

* a simulated clock (:class:`~repro.engine.clock.SimClock`, shared
  with the event engine),
* a laser with power-cycle timing (:mod:`~repro.bvt.laser`),
* a coherent DSP with full-reprogram and in-service reconfiguration
  paths (:mod:`~repro.bvt.dsp`),
* the transceiver state machine tying them together
  (:mod:`~repro.bvt.transceiver`),
* the repeat-trial testbed harness of Figures 5/6
  (:mod:`~repro.bvt.testbed`).

The headline behaviour it reproduces: a standard modulation change
power-cycles the laser and costs ~68 s of downtime on average, while an
"efficient" change that keeps the laser lit costs ~35 ms.
"""
