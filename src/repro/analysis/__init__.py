"""Figure/table data generation and rendering.

:mod:`~repro.analysis.figures` has one entry point per figure of the
paper's evaluation; each returns a plain dataclass of series that the
benchmarks print via :mod:`~repro.analysis.report`.  The CDF helpers in
:mod:`~repro.analysis.cdf` are shared by both, and
:mod:`~repro.analysis.margins` prices static over-provisioning (the
study's margin and stranded-capacity rows).
"""
