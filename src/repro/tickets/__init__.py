"""Failure-ticket substrate.

Section 2.2 of the paper manually analyses seven months of unplanned
failure tickets (250 events) filed by WAN field operators and buckets
them by root cause.  This package synthesises an equivalent ticket corpus
(:mod:`~repro.tickets.generator`) with the paper's taxonomy
(:mod:`~repro.tickets.model`) and reproduces the share-of-duration and
share-of-frequency analyses of Figures 4a/4b
(:mod:`~repro.tickets.analysis`).
"""
