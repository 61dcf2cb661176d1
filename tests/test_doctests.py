"""Run the doctests embedded in module docstrings."""

import doctest

import pytest

import repro.analysis.cdf
import repro.obs
import repro.obs.metrics
import repro.optics.units
import repro.telemetry.timebase


@pytest.mark.parametrize(
    "module",
    [
        repro.optics.units,
        repro.telemetry.timebase,
        repro.analysis.cdf,
        repro.obs,
        repro.obs.metrics,
    ],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures"
    assert results.attempted > 0, "expected at least one doctest"
