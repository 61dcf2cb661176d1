"""SNR telemetry substrate.

The paper's Section 2 analyses 2.5 years of 15-minute SNR samples for more
than 2,000 production wavelengths.  That dataset is proprietary, so this
package synthesises a statistically equivalent one:

* a sampling grid (:mod:`~repro.telemetry.timebase`),
* rare-event impairment processes per cable and per wavelength
  (:mod:`~repro.telemetry.events`),
* per-wavelength SNR traces: physical baseline + stationary noise + slow
  wander + event penalties (:mod:`~repro.telemetry.traces`),
* the highest-density-region statistic of Figure 2a
  (:mod:`~repro.telemetry.hdr`),
* range / threshold-crossing / failure-episode statistics
  (:mod:`~repro.telemetry.stats`),
* a backbone-scale dataset builder (:mod:`~repro.telemetry.dataset`).
"""
