"""Figure 2a: CDFs of SNR variation — HDR(95%) width vs. max-min range.

Paper: HDR < 2 dB for 83% of links; the range is far wider (mean
~12 dB) because dips are dramatic but rare.
"""

import numpy as np

from repro.analysis import figures
from repro.analysis.report import render_cdf


def test_fig2a_snr_variation(benchmark, backbone_summaries):
    data = benchmark.pedantic(
        lambda: figures.fig2a_snr_variation(backbone_summaries),
        rounds=1,
        iterations=1,
    )
    print("\nFigure 2a — SNR variation across the backbone")
    print(render_cdf("HDR(95%) width", data.hdr_widths_db,
                     points=[0.5, 1.0, 2.0, 4.0], unit=" dB"))
    print(render_cdf("range (max-min)", data.ranges_db,
                     points=[2.0, 5.0, 10.0, 15.0], unit=" dB"))
    print(f"  HDR < 2 dB: {100.0 * data.frac_hdr_below_2db:.1f}% (paper: 83%)")
    print(f"  mean range: {data.mean_range_db:.1f} dB (paper: ~12)")

    benchmark.extra_info["frac_hdr_below_2db"] = round(data.frac_hdr_below_2db, 3)
    benchmark.extra_info["mean_range_db"] = round(data.mean_range_db, 2)

    assert 0.75 <= data.frac_hdr_below_2db <= 0.95
    assert 8.0 <= data.mean_range_db <= 16.0
    # the qualitative claim: ranges dwarf HDR widths
    assert data.mean_range_db > 4 * float(np.mean(data.hdr_widths_db))
