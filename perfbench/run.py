"""driftfed benchmark: one workload, repeated for a fixed time, then checked.

    python3 perfbench/run.py --workload desk-binary --seed 1 --seconds 35 --trace 0

Run from the repository root. Each repetition runs in a fresh process
(perfbench/worker.py), so set-up time and peak memory are measured per
repetition. Repetitions start until ``--seconds`` have passed (at least
two). With ``--trace 0``
the last line of standard output carries the end-to-end metrics, each the
median over repetitions. With ``--trace 1`` traced and untraced
repetitions alternate and the last line carries the per-layer metrics,
each the median over traced repetitions. A full record
with the environment, every repetition and the artifact digest goes to
``.perfbench_out/results/``; scratch output goes to ``.perfbench_out/``
and is removed after each repetition.

Metric names and units come from BENCHMARK.json at the repository root.

Correctness: every strategy must finish, the worker's artifact checks must
pass, and the sha256 over the deterministic artifacts must be the same in
every repetition, traced or not. It must also equal the digest recorded for
the workload and seed in perfbench/reference.json, when that file has the
seed and was recorded on a host with the same fingerprint (see
``worker.environment``); otherwise the comparison is reported as skipped.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = Path(".perfbench_out")
BLAS_THREADS = "1"
MIN_REPS = 2
REP_TIMEOUT_S = 150
REFERENCE = HERE / "reference.json"


def run_rep(workload: str, seed: int, trace: bool, index: int) -> dict | None:
    """One repetition in a fresh worker process; None if the worker crashed."""
    out = OUT / f"{workload}-seed{seed}-rep{index}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()),
               OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), "--trace", str(int(trace))]
    t0 = time.monotonic()
    proc = subprocess.run([*cmd, "--t0", repr(t0)], env=env, stdout=subprocess.PIPE,
                          text=True, timeout=REP_TIMEOUT_S, check=False)
    if proc.returncode == 0 and trace:
        spans = out / "spans.jsonl"
        spans.replace(OUT / "results" / f"{workload}-seed{seed}-spans.jsonl")
    shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        print(f"rep {index}: worker exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_status(workload: str, seed: int, digest: str, env: dict) -> str:
    """'match', 'mismatch', or why the digest was not compared with the reference."""
    reference = json.loads(REFERENCE.read_text())
    if reference["env"]["fingerprint"] != env["fingerprint"]:
        return "skipped: reference recorded on a host with another fingerprint"
    expected = reference["digests"][workload].get(str(seed))
    if expected is None:
        return f"skipped: no reference for seed {seed}"
    return "match" if digest == expected else "mismatch"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if not Path("src/driftfed/__init__.py").is_file():
        print("src/driftfed not found: run from the root of a driftfed checkout",
              file=sys.stderr)
        return 2
    bench = json.loads(Path("BENCHMARK.json").read_text())
    (OUT / "results").mkdir(parents=True, exist_ok=True)

    start = time.monotonic()
    reps: list[tuple[bool, dict | None]] = []
    while time.monotonic() - start < args.seconds or len(reps) < MIN_REPS:
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append((traced, run_rep(args.workload, args.seed, traced, len(reps))))

    done = [r for _, r in reps if r is not None]
    plain = [r for is_traced, r in reps if r is not None and not is_traced]
    traced = [r for is_traced, r in reps if r is not None and is_traced]
    if not plain or (args.trace and not traced):
        print("no repetition of a needed kind finished", file=sys.stderr)
        return 1
    strategies = done[0]["strategies"]
    attempted = strategies * len(reps)
    failed = strategies * (len(reps) - len(done))
    failed += sum(r["failed_strategies"] + len(r["problems"]) for r in done)
    digests = {r["digest"] for r in done}
    reference = reference_status(args.workload, args.seed, done[0]["digest"], done[0]["env"])
    if len(digests) != 1 or reference == "mismatch":
        failed += len(done)
    for r in done:
        for problem in r["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
    if len(digests) != 1:
        print(f"artifact digests differ between repetitions: {sorted(digests)}",
              file=sys.stderr)
    if reference == "mismatch":
        print(f"artifact digest differs from {REFERENCE.name} for seed {args.seed}",
              file=sys.stderr)

    summary = {name: statistics.median(r[name] for r in plain)
               for name in ("run_s", "train_rows_per_s", "infer_rows_per_s",
                            "peak_rss_mb", "protocol_acc")}
    summary["setup_s"] = statistics.median(r["setup_s"] for r in plain)
    summary["ok_ratio"] = max(0.0, 1.0 - failed / attempted)
    values = summary
    if args.trace:
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                      - summary["run_s"])
    declared = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": done[0]["env"], "digest": sorted(digests),
        "reference": reference, "end_to_end": summary, "metrics": metrics,
        "reps": [{**{k: v for k, v in r.items() if k != "env"}, "traced": t}
                 for t, r in reps if r is not None],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / "results" / name).write_text(json.dumps(record, indent=2) + "\n")

    print("env " + json.dumps(record["env"], sort_keys=True))
    print(f"digest {sorted(digests)[0]}  reference {reference}  "
          f"reps {len(reps)} ({len(traced)} traced)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
