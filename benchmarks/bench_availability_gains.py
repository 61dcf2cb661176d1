"""Section 2.2: availability — failures becoming flaps.

Paper: at least 25% of 100 Gbps failures keep SNR >= 3 dB and would
survive at 50 Gbps under dynamic capacities.
"""

from repro.sim.availability import availability_report


def test_availability_gains(benchmark, backbone_dataset):
    report = benchmark.pedantic(
        lambda: availability_report(backbone_dataset.iter_traces()),
        rounds=1,
        iterations=1,
    )
    print(f"\nAvailability — binary vs dynamic over {report.n_links} links")
    print(f"  binary failures:          {report.n_binary_failures}")
    print(f"  avoided (became flaps):   {report.n_avoided} "
          f"({100.0 * report.avoided_fraction:.1f}%; paper: ~25%)")
    print(f"  downtime saved:           {report.total_downtime_saved_h:.0f} h")
    print(f"  mean availability:        "
          f"{100.0 * report.mean_binary_availability:.4f}% -> "
          f"{100.0 * report.mean_dynamic_availability:.4f}%")

    benchmark.extra_info["avoided_fraction"] = round(report.avoided_fraction, 3)
    benchmark.extra_info["downtime_saved_h"] = round(
        report.total_downtime_saved_h, 1
    )

    assert 0.15 <= report.avoided_fraction <= 0.40
    assert report.mean_dynamic_availability >= report.mean_binary_availability
    assert report.total_downtime_saved_h > 0
