"""Optical physical-layer substrate.

This package models the pieces of an optical line system that the paper's
measurement study and testbed rely on:

* unit conversions between decibel and linear domains (:mod:`~repro.optics.units`),
* the modulation-format ladder with its required-SNR thresholds
  (:mod:`~repro.optics.modulation`),
* ideal and noisy signal constellations (:mod:`~repro.optics.constellation`),
* a span/amplifier noise budget that produces realistic baseline SNRs
  (:mod:`~repro.optics.fiber`),
* SNR bookkeeping and feasible-capacity lookups (:mod:`~repro.optics.snr`),
* parametric impairment events (:mod:`~repro.optics.impairments`).
"""
