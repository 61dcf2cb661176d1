#!/usr/bin/env python
"""The BVT testbed: why capacity changes take a minute, and the fix.

Drives the transceiver simulator over its MDIO register interface the
way the paper's testbed does, measuring the downtime of modulation
changes under the standard procedure (laser power-cycle) and the
efficient one (in-service constellation swap).  Also captures the
Figure-5 constellations.

Run:  python examples/hitless_reconfiguration.py
"""

import numpy as np

from repro.bvt.mdio import MdioInterface, Register
from repro.bvt.testbed import Testbed
from repro.bvt.transceiver import Bvt


def mdio_walkthrough() -> None:
    """Register-level session, as a field engineer would script it."""
    print("== MDIO session ==")
    mdio = MdioInterface(Bvt(), np.random.default_rng(7))
    print(f"device id:       {mdio.read(Register.DEVICE_ID):#06x}")
    print(f"current rung:    {mdio.read(Register.CURRENT_MOD)} (100 Gbps)")

    standard_ms = mdio.set_modulation(200.0)
    print(f"standard change to 200 Gbps: {standard_ms / 1000.0:.1f} s downtime")

    efficient_ms = mdio.set_modulation(150.0, efficient=True)
    print(f"efficient change to 150 Gbps: {efficient_ms} ms downtime")


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
    mdio_walkthrough()
    figure6_experiment()
    figure5_constellations()
