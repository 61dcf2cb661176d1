#!/usr/bin/env python
"""The Section-2 measurement study on the synthetic backbone.

A thin wrapper over the registered ``study`` experiment
(:mod:`repro.experiments`): the same code path the CLI and the sweep
runner execute, so the numbers printed here are exactly what a sweep
artifact would store.  Pass ``--full`` for the paper-scale 2,000-link
2.5-year corpus.

Run:  python examples/backbone_telemetry_study.py [--full]
"""

import sys

from repro.experiments.registry import render_result, run_spec
from repro.experiments.spec import ScenarioSpec


def main(full: bool = False) -> None:
    params = {"cables": 55, "years": 2.5} if full else {}
    spec = ScenarioSpec.create("example/study", "study", **params)
    result = run_spec(spec)
    print(render_result("study", result))


if __name__ == "__main__":
    main(full="--full" in sys.argv)
