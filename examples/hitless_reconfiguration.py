#!/usr/bin/env python
"""The BVT testbed: why capacity changes take a minute, and the fix.

Drives the transceiver simulator directly, measuring the downtime of
modulation changes under the standard procedure (laser power-cycle)
and the efficient one (in-service constellation swap).  Also captures
the Figure-5 constellations.

Run:  python examples/hitless_reconfiguration.py
"""

import numpy as np

from repro.bvt.testbed import Testbed
from repro.bvt.transceiver import Bvt, ChangeProcedure


def single_changes() -> None:
    """Two changes on one transceiver, one per procedure."""
    print("== one transceiver ==")
    bvt = Bvt()
    rng = np.random.default_rng(7)
    print(f"current rate:    {bvt.capacity_gbps:.0f} Gbps ({bvt.format.name})")

    standard = bvt.change_modulation(200.0, rng)
    print(f"standard change to 200 Gbps: {standard.downtime_s:.1f} s downtime")

    efficient = bvt.change_modulation(
        150.0, rng, procedure=ChangeProcedure.EFFICIENT
    )
    print(
        f"efficient change to 150 Gbps: "
        f"{1000.0 * efficient.downtime_s:.0f} ms downtime"
    )


def figure6_experiment() -> None:
    print("\n== 200-trial modulation-change experiment (Figure 6b) ==")
    report = Testbed(seed=68).run_figure6_experiment(200)
    print(
        f"standard  (laser power-cycle): mean {report.standard_mean_s:6.1f} s  "
        f"min {report.standard_downtimes_s.min():.1f} s  "
        f"max {report.standard_downtimes_s.max():.1f} s"
    )
    print(
        f"efficient (laser stays lit):   mean "
        f"{1000.0 * report.efficient_mean_s:6.1f} ms "
        f"min {1000.0 * report.efficient_downtimes_s.min():.1f} ms  "
        f"max {1000.0 * report.efficient_downtimes_s.max():.1f} ms"
    )
    print(f"speedup: {report.speedup:,.0f}x  (paper: 68 s -> 35 ms)")


def figure5_constellations() -> None:
    print("\n== received constellations (Figure 5) ==")
    testbed = Testbed(seed=5)
    print(f"testbed line SNR: {testbed.snr_db:.1f} dB")
    for capacity in Testbed.FIGURE5_CAPACITIES_GBPS:
        sample = testbed.capture_constellation(capacity)
        name = testbed.table.format_for_capacity(capacity).name
        print(
            f"{capacity:5.0f} Gbps ({name:>5}): EVM {sample.evm_percent:4.1f}%  "
            f"SER {sample.symbol_error_rate:.2e}"
        )


if __name__ == "__main__":
    single_changes()
    figure6_experiment()
    figure5_constellations()
