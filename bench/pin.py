"""Rewrite bench/pins.json: the sha256 of every job's report at this commit.

    python3 bench/pin.py

Runs every job the benchmark can draw (all mutants, the fixed localize jobs,
the corpus verify jobs and tcas9-descend) once, untraced.  Run it only when a
change to floc's reports is intended; the benchmark fails on any other drift.
"""

from __future__ import annotations

import json
import sys

import reference
import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    floc = run.import_floc()
    api = workloads.Api(floc)
    pins = {}
    for workload in workloads.WORKLOADS:
        jobs, _ = workloads.build_jobs(workload, floc, run.ROOT, seed=0)
        for job in jobs:
            pins[job.key] = reference.sha256(workloads.run_job(api, job)[0])
    reference.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(pins)} reports in {reference.PINS_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
