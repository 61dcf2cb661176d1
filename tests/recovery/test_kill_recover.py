"""End-to-end durability smoke: SIGKILL a journaled run, recover, verify.

The in-process ``controller.crash`` fault proves seam coverage; this
test proves the journal survives a *real* process death — the child is
killed with SIGKILL (no cleanup, no atexit, no flush) once at least one
round frame is durably committed, and the parent resumes the journal to
the byte-identical uninterrupted result.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.controller import DynamicCapacityController
from repro.faults.chaos import _chaos_inputs
from repro.recovery.journal import recover
from repro.sim.replay import replay_controller

REPO = Path(__file__).parents[2]

DAYS = 4.0  # ~24 rounds: wide window for the kill to land mid-run

CHILD = """
import sys
from repro.core.controller import DynamicCapacityController
from repro.faults.chaos import _chaos_inputs
from repro.sim.replay import replay_controller

journal_dir = sys.argv[1]
topology, traces_by_link, demands = _chaos_inputs({days}, 7)
controller = DynamicCapacityController(topology, seed=7)
replay_controller(
    controller,
    traces_by_link,
    demands,
    te_interval_s=4 * 3600.0,
    journal_dir=journal_dir,
)
""".format(days=DAYS)


def committed_rounds(journal_dir: Path) -> int:
    """Durably committed round frames, read exactly like recovery would."""
    from repro.recovery.journal import scan_frames

    n = 0
    for path in journal_dir.glob("wal-*.jsonl"):
        records, _ = scan_frames(path.read_bytes())
        n += sum(1 for r in records if r.get("t") == "round")
    return n


class TestKillRecover:
    def test_sigkill_then_recover_byte_identical(self, tmp_path):
        journal_dir = tmp_path / "journal"
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", CHILD, str(journal_dir)],
            env=env,
            cwd=REPO,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    break  # finished before the kill — resume still must work
                if journal_dir.is_dir() and committed_rounds(journal_dir) >= 1:
                    proc.kill()
                    proc.wait(timeout=30)
                    break
                time.sleep(0.02)
            else:
                proc.kill()
                pytest.fail("journal committed no round within 120s")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

        # the journal on disk is recoverable as-is (torn tails included)
        recovered = recover(journal_dir)
        assert recovered.n_rounds >= 1

        topology, traces_by_link, demands = _chaos_inputs(DAYS, 7)

        def run(**kwargs):
            controller = DynamicCapacityController(topology, seed=7)
            return replay_controller(
                controller,
                traces_by_link,
                demands,
                te_interval_s=4 * 3600.0,
                **kwargs,
            )

        reference = run()
        resumed = run(journal_dir=str(journal_dir), resume=True)
        assert resumed.n_rounds == reference.n_rounds
        assert resumed.times_s.tolist() == reference.times_s.tolist()
        assert (
            resumed.throughput_gbps.tolist()
            == reference.throughput_gbps.tolist()
        )
        assert resumed.downtime_s.tolist() == reference.downtime_s.tolist()
        assert [r.traffic_disrupted_gbps for r in resumed.reports] == [
            r.traffic_disrupted_gbps for r in reference.reports
        ]
