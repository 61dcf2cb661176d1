"""Persistence for link summaries.

Trace synthesis for a full backbone takes minutes; analyses over the
same corpus should not pay that repeatedly.  Summaries round-trip
through JSON, self-describing enough to reload without the generating
config.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from repro.telemetry.hdr import HdrInterval
from repro.telemetry.stats import CapacityFailureStats, LinkSummary

_FORMAT_VERSION = 1


def _summary_to_dict(summary: LinkSummary) -> dict:
    return {
        "link_id": summary.link_id,
        "cable_name": summary.cable_name,
        "baseline_db": summary.baseline_db,
        "range_db": summary.range_db,
        "hdr": {
            "low": summary.hdr.low,
            "high": summary.hdr.high,
            "mass": summary.hdr.mass,
        },
        "feasible_capacity_gbps": summary.feasible_capacity_gbps,
        "configured_capacity_gbps": summary.configured_capacity_gbps,
        "failures_by_capacity": [
            {
                "capacity_gbps": s.capacity_gbps,
                "n_episodes": s.n_episodes,
                "durations_h": list(s.durations_h),
                "min_snrs_db": list(s.min_snrs_db),
            }
            for s in summary.failures_by_capacity
        ],
    }


def _summary_from_dict(payload: dict) -> LinkSummary:
    return LinkSummary(
        link_id=payload["link_id"],
        cable_name=payload["cable_name"],
        baseline_db=payload["baseline_db"],
        range_db=payload["range_db"],
        hdr=HdrInterval(
            low=payload["hdr"]["low"],
            high=payload["hdr"]["high"],
            mass=payload["hdr"]["mass"],
        ),
        feasible_capacity_gbps=payload["feasible_capacity_gbps"],
        configured_capacity_gbps=payload["configured_capacity_gbps"],
        failures_by_capacity=tuple(
            CapacityFailureStats(
                capacity_gbps=s["capacity_gbps"],
                n_episodes=s["n_episodes"],
                durations_h=tuple(s["durations_h"]),
                min_snrs_db=tuple(s["min_snrs_db"]),
            )
            for s in payload["failures_by_capacity"]
        ),
    )


def save_summaries(path: str | Path, summaries: Sequence[LinkSummary]) -> Path:
    """Write link summaries as a JSON document."""
    summaries = list(summaries)
    if not summaries:
        raise ValueError("nothing to save")
    path = Path(path)
    document = {
        "version": _FORMAT_VERSION,
        "n_links": len(summaries),
        "summaries": [_summary_to_dict(s) for s in summaries],
    }
    path.write_text(json.dumps(document, sort_keys=True))
    return path


def load_summaries(path: str | Path) -> list[LinkSummary]:
    """Reload summaries written by :func:`save_summaries`."""
    document = json.loads(Path(path).read_text())
    version = document.get("version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported summary file version {version}")
    return [_summary_from_dict(p) for p in document["summaries"]]
