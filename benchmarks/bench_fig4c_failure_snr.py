"""Figure 4c: CDF of the lowest SNR during 100 Gbps failure events.

Paper: the minimum stays at or above 3.0 dB nearly 25% of the time —
those failures could have run on at 50 Gbps.
"""

from repro.analysis import figures
from repro.analysis.report import render_cdf


def test_fig4c_failure_snr(benchmark, backbone_summaries):
    data = benchmark.pedantic(
        lambda: figures.fig4c_failure_snr(backbone_summaries),
        rounds=1,
        iterations=1,
    )
    print(f"\nFigure 4c — lowest SNR at {len(data.min_snrs_db)} failure events")
    print(render_cdf("failure min SNR", data.min_snrs_db,
                     points=[0.0, 1.0, 3.0, 5.0, 6.0], unit=" dB"))
    print(f"  min SNR >= 3.0 dB (rescuable at 50G): "
          f"{100.0 * data.frac_at_least_3db:.1f}% (paper: ~25%)")

    benchmark.extra_info["frac_rescuable"] = round(data.frac_at_least_3db, 3)

    assert 0.15 <= data.frac_at_least_3db <= 0.40  # paper: "at least 25%"
    assert data.min_snrs_db.min() >= 0.0  # measurement floor
    assert data.min_snrs_db.max() < 6.5  # by definition of a failure
