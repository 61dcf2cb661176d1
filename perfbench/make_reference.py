"""Regenerate the committed reference digests for a range of seeds.

    python3 perfbench/make_reference.py FIRST_SEED LAST_SEED

Each digest is the canonical result of a workload's first episode at
that seed.  Regenerate only in a change that is meant to alter results;
a change that claims speed alone must reproduce the committed digests.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    for var in run.PINNED_ENV:
        os.environ.pop(var, None)
    table = json.loads(run.REFERENCE_FILE.read_text())
    workdir = run.WORK_DIR / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for name in workloads.WORKLOADS:
            digests = table.setdefault(name, {})
            for seed in range(first, last + 1):
                episode = workloads.build(name, seed, workdir).episode(0)
                digests[str(seed)] = episode.digest
                print(name, seed, episode.digest, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ordered = {
        name: dict(sorted(digests.items(), key=lambda item: int(item[0])))
        for name, digests in sorted(table.items())
    }
    run.REFERENCE_FILE.write_text(json.dumps(ordered, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
