"""The discrete-event engine the timed simulators run on.

One unmodified control loop serving every scenario is the paper's core
argument; this package is the reproduction's version of that argument
applied to itself.  :mod:`repro.engine.kernel` is the deterministic
timeline (priority-queue event loop, shared :class:`SimClock`,
component-keyed RNG); :mod:`repro.engine.sources` supplies the stock
event streams (telemetry samples, scheduled TE rounds, fixed
sequences, EWMA alarms).  The controller replay, the reaction-lag
study and the BVT testbed are thin scenario definitions over this
kernel — handlers, not loops.  A scenario with no timeline is a plain
loop instead: the ticket what-if and the cable drill settle every
value up front (:func:`repro.sim.whatif.settle_scenarios`) and never
build an engine.
"""
