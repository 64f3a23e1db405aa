"""One repetition of a workload in a fresh process; prints one JSON line.

Started by run.py, never by hand. The process builds the workload's config
and inputs, calls ``run_experiment`` once (traced or not), then checks the
artifacts and digests the deterministic ones. The reported set-up time runs
from the moment run.py started this process (``--t0``, a CLOCK_MONOTONIC
reading, which is shared by all processes) to the ``run_experiment`` call.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

import driftfed
from driftfed import runner
from tracing import Tracer, layer_table
from workloads import WORKLOADS, build

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    """The host and libraries, plus a fingerprint of what decides float results.

    numpy and OpenBLAS pick SIMD kernels by CPU feature, and kernels round
    differently, so artifact digests are comparable only between hosts with
    the same fingerprint.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
        "cpu_features": sorted(name for name, on in __cpu_features__.items() if on),
    }
    decisive = {k: v for k, v in env.items() if k not in ("nproc", "cpus_usable")}
    env["fingerprint"] = hashlib.sha256(
        json.dumps(decisive, sort_keys=True).encode()).hexdigest()[:16]
    return env


def digest(run_dir: Path, task: str) -> str:
    """sha256 over the deterministic artifacts, each prefixed by its relative path."""
    names = [f"accuracy_{task}.csv", f"cells_{task}.csv", f"composition_{task}.csv"]
    names += sorted(str(p.relative_to(run_dir)) for p in run_dir.glob("checkpoints/*/*.ckpt"))
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0")
        h.update((run_dir / name).read_bytes())
    return h.hexdigest()


def check(result, cfg, doc: dict, accuracy_rows: list[list[str]]) -> list[str]:
    """Problems found in a finished run's artifacts; empty means all correct."""
    problems = [f"strategy {label} failed: {msg}" for label, msg in result.failures.items()]
    labels = [s.label for s in cfg.strategies]
    if [row[0] for row in accuracy_rows] != labels:
        problems.append("accuracy table does not list every strategy in order")
    for row in accuracy_rows:
        values = [float(v) for v in row[1:]]
        if not all(0.0 <= v <= 1.0 for v in values):
            problems.append(f"{row[0]}: accuracy outside [0, 1]")
        if abs(statistics.fmean(values[:-1]) - values[-1]) > 2e-6:
            problems.append(f"{row[0]}: avg column is not the mean of the periods")
    for label, entry in doc["strategies"].items():
        for cell in entry["cells"]:
            if cell["n_samples"] <= 0 or cell["inference_seconds"] <= 0:
                problems.append(f"{label}: empty or untimed evaluation cell")
        for rel in entry["checkpoints"]:
            ckpt = driftfed.load_checkpoint(Path(cfg.output_dir) / rel)
            expected = entry["train_samples"].get(f"t{ckpt.period_id}")
            if ckpt.params.arch != cfg.arch or ckpt.train_sample_count != expected:
                problems.append(f"{rel}: checkpoint does not match its run")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = (Path.cwd() / "src").resolve()
    if Path(driftfed.__file__).resolve().parent.parent != src:
        print(f"driftfed imported from {driftfed.__file__}, not from {src}", file=sys.stderr)
        return 2

    out = Path(args.out)
    workload = WORKLOADS[args.workload]
    tracer = Tracer(run_id=out.name) if args.trace else None
    if tracer:
        tracer.install()
    cfg, records = build(workload, args.seed, out)

    called = time.monotonic()
    tick = time.perf_counter()
    result = runner.run_experiment(cfg, records)
    run_s = time.perf_counter() - tick
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.uninstall()

    run_dir = Path(cfg.output_dir)
    doc = json.loads((run_dir / f"metrics_{cfg.task}.json").read_text())
    with open(run_dir / f"accuracy_{cfg.task}.csv", newline="") as fh:
        accuracy_rows = [row for row in csv.reader(fh) if not row[0].startswith("#")][1:]
    problems = check(result, cfg, doc, accuracy_rows)

    passes = cfg.fed.rounds * cfg.fed.train.local_epochs
    strategies = doc["strategies"].values()
    trained = sum(n * passes for s in strategies for n in s["train_samples"].values())
    train_s = sum(sec for s in strategies for sec in s["train_latency_seconds"].values())
    cells = [c for s in strategies for c in s["cells"]]
    report = {
        "strategies": len(cfg.strategies),
        "failed_strategies": len(result.failures),
        "problems": problems,
        "digest": digest(run_dir, cfg.task),
        "setup_s": called - args.t0,
        "run_s": run_s,
        "train_rows_per_s": trained / train_s,
        "infer_rows_per_s": (sum(c["n_samples"] for c in cells)
                             / sum(c["inference_seconds"] for c in cells)),
        "peak_rss_mb": peak_kb / 1024.0,
        "protocol_acc": statistics.fmean(float(row[-1]) for row in accuracy_rows),
        "env": environment(),
    }
    if tracer:
        tracer.write(out / "spans.jsonl")
        report["layers"] = layer_table(tracer.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
