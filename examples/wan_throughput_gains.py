#!/usr/bin/env python
"""Throughput gains from SNR-adaptive capacities on a continental WAN.

A thin wrapper over the registered ``throughput`` experiment
(:mod:`repro.experiments`): sweeps demand scale on the 21-node
US-backbone-like topology and compares the TE throughput of the static
100 Gbps network against the dynamically-augmented one — the same code
path as ``repro throughput`` and the sweep runner.

Run:  python examples/wan_throughput_gains.py
"""

from repro.experiments.registry import render_result, run_spec
from repro.experiments.spec import ScenarioSpec


def main() -> None:
    spec = ScenarioSpec.create(
        "example/throughput",
        "throughput",
        scales=[0.25, 0.5, 1.0, 1.5, 2.0, 3.0],
    )
    result = run_spec(spec)
    print(render_result("throughput", result))
    saturated = result["points"][-1]
    print(
        f"\nat {saturated['scale']:.0f}x demand the dynamic network "
        f"carries {saturated['gain_ratio']:.2f}x the static throughput"
    )


if __name__ == "__main__":
    main()
