"""Run the benchmark over many seeds and summarize each end-to-end metric.

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/baseline.json

Run from the repository root. For every workload in BENCHMARK.json and
every seed this runs perfbench/run.py with ``--trace 0``, then once more
with ``--trace 1`` on the first seed. It prints, per workload and metric,
the median, the quartiles and their distance as a share of the median (the
spread), next to the metric's bound in BENCHMARK.json. With ``--out`` it
also writes every run's result line, the artifact digest per seed and the
traced per-layer table to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RESULTS = Path(".perfbench_out/results")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((RESULTS / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": line, "digest": record["digest"], "env": record["env"]}


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def markdown(summary: dict, bench: dict) -> str:
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    lines = ["# driftfed benchmark baseline", "",
             "Written by `perfbench/sweep.py`. Spread is (q3 - q1) / median over "
             "the seeds; the digest is the sha256 of the deterministic artifacts.", ""]
    for workload, entry in summary.items():
        env = entry["env"]
        lines += [f"## {workload}", "",
                  f"Seeds {entry['seeds'][0]}..{entry['seeds'][-1]}, "
                  f"{bench['run_seconds']} s per run; all correct: {entry['correct']}. "
                  f"nproc {env['nproc']}, Python {env['python']}, numpy {env['numpy']}, "
                  f"{env['blas']} {env['blas_version']}, BLAS threads "
                  f"{env['blas_threads']['OPENBLAS_NUM_THREADS']}.", "",
                  "| metric | unit | better | median | q1 | q3 | spread | bound |",
                  "|---|---|---|---|---|---|---|---|"]
        for name, m in entry["metrics"].items():
            b = bounds[name]
            lines.append(f"| {name} | {b['unit']} | {b['better']} | {m['median']:.6g} | "
                         f"{m['q1']:.6g} | {m['q3']:.6g} | {m['spread']:.3f} | {b['bound']} |")
        lines += ["", "| seed | artifact sha256 |", "|---|---|"]
        lines += [f"| {seed} | {' '.join(d)} |" for seed, d in entry["digest"].items()]
        traced = entry["traced"]
        lines += ["", f"Traced run, seed {traced['seed']} (medians over traced "
                  f"repetitions; digest {' '.join(traced['digest'])}):", "",
                  "| per-layer metric | value | unit |", "|---|---|---|"]
        lines += [f"| {name} | {m['value']:.6g} | {m['unit']} |"
                  for name, m in traced["result"]["metrics"].items()]
        lines.append("")
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--out", default=None)
    ap.add_argument("--markdown", default=None)
    args = ap.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = seed_list(args.seeds)

    summary = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {seed: run(workload, seed, bench["run_seconds"], 0) for seed in seeds}
        entry = {"seeds": seeds, "env": runs[seeds[0]]["env"],
                 "digest": {seed: r["digest"] for seed, r in runs.items()},
                 "correct": all(r["result"]["correct"] for r in runs.values()),
                 "metrics": {}}
        print(f"== {workload}: correct={entry['correct']}")
        for metric in bounds:
            values = [r["result"]["metrics"][metric]["value"] for r in runs.values()]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            entry["metrics"][metric] = {"median": med, "q1": q1, "q3": q3,
                                        "spread": spread, "values": values}
            print(f"  {metric:18s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  "
                  f"spread {spread:6.3f}  bound {bounds[metric]:g}")
        entry["traced"] = run(workload, seeds[0], bench["run_seconds"], 1)
        entry["traced"]["seed"] = seeds[0]
        for metric, m in entry["traced"]["result"]["metrics"].items():
            print(f"  [trace] {metric:32s} {m['value']:14.6g} {m['unit']}")
        summary[workload] = entry
        sys.stdout.flush()

    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    if args.markdown:
        Path(args.markdown).write_text(markdown(summary, bench))
    return 0


if __name__ == "__main__":
    sys.exit(main())
