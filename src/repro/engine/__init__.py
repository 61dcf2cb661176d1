"""The discrete-event engine the BVT testbed runs on.

:mod:`repro.engine.kernel` is a deterministic timeline (priority-queue
event loop, shared :class:`~repro.engine.clock.SimClock`,
component-keyed RNG) and :mod:`repro.engine.sources` its event
sources.  The BVT testbed's repeat trials are its one scenario: their
handlers advance the shared clock through each reconfiguration.  The
controller runs (replay and reaction-lag study), the ticket what-if and
the cable drill are plain loops and build no engine; the controller
runs only share :class:`~repro.engine.clock.SimClock` for their sim
time.
"""
