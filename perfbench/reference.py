"""Record the artifact digest of every workload for seeds 0..63.

    python3 perfbench/reference.py

Run from the repository root. Each workload and seed runs once, untraced,
two at a time, and every run must pass the worker's checks. The digests go
to perfbench/reference.json with the recording host's environment; run.py
then fails a run whose digest differs from it on a host with the same
fingerprint. Record it again only with a change that is meant to alter the
deterministic artifacts, and say which bytes changed and why.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from run import REFERENCE, run_rep
from workloads import WORKLOADS

SEEDS = range(64)


def main() -> int:
    if not Path("src/driftfed/__init__.py").is_file():
        print("src/driftfed not found: run from the root of a driftfed checkout",
              file=sys.stderr)
        return 2
    jobs = [(workload, seed) for workload in WORKLOADS for seed in SEEDS]
    with ThreadPoolExecutor(max_workers=2) as pool:
        reports = list(pool.map(lambda job: run_rep(job[0], job[1], False, 0), jobs))
    digests = {workload: {} for workload in WORKLOADS}
    for (workload, seed), report in zip(jobs, reports):
        if report is None or report["failed_strategies"] or report["problems"]:
            print(f"{workload} seed {seed} did not pass its checks", file=sys.stderr)
            return 1
        digests[workload][str(seed)] = report["digest"]
    envs = {report["env"]["fingerprint"] for report in reports}
    if len(envs) != 1:
        print(f"fingerprints differ between runs: {sorted(envs)}", file=sys.stderr)
        return 1
    REFERENCE.write_text(json.dumps({"env": reports[0]["env"], "digests": digests},
                                    indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
