"""The results ledger: one small desk run per task, recorded in ``tests/golden``.

The run is the desk preset at learning rate 0.01 with all ten strategies,
60 rows per sub-attack of the synthetic scenario and seed 5. At the preset's
rate of 0.001 many models predict one class only, so a change in the
arithmetic could leave the tables as they were; at 0.01 every strategy
learns. ``tests/golden/results_<task>/`` holds the run's accuracy, cells,
composition and transfer tables, the sha256 of every checkpoint (``checkpoints.sha256``),
the sum and the sum of squares of every checkpoint tensor
(``checkpoint_sums.txt``) and the host they were recorded on (``host.json``).

Checkpoint bytes depend on the BLAS and the CPU: kernels picked by CPU
feature round differently in the last bit. So the host record is
``perfbench/worker.py``'s ``environment()``, whose fingerprint the benchmark
also records, and ``tests/test_results_ledger.py`` compares checkpoint
hashes only on a host with that fingerprint. The tables are compared on any
host, and so are the checkpoint sums, within :data:`SUM_TOLERANCE`: a last
bit rounded another way moves them far less than that, and a change in the
arithmetic that moves no table byte moves them far more.

A change that moves results re-records the ledger, and its git diff shows
which cells moved::

    PYTHONPATH=src python tests/results_ledger.py
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from driftfed.federation import load_checkpoint
from driftfed.runner import DataSource, RunConfig, desk_scale, run_experiment
from driftfed.timeline import TASKS

GOLDEN = Path(__file__).resolve().parent / "golden"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TABLES = ("accuracy", "cells", "composition", "transfer")
CHECKPOINTS = "checkpoints.sha256"
SUMS = "checkpoint_sums.txt"
HOST = "host.json"

# Checkpoint sums agree with the ledger's on any host to within SUM_TOLERANCE
# times max(1, |recorded|). Forcing OpenBLAS's Haswell kernels, which round
# differently in the last bit, moved them by at most 3.7e-14 of that; a
# change in the arithmetic as small as ADAM_EPS 1e-8 -> 1.1e-8 moved every
# checkpoint by 1.3e-6 or more. 1e-9 sits between, with room on both sides.
SUM_TOLERANCE = 1e-9


def ledger_dir(task: str) -> Path:
    return GOLDEN / f"results_{task}"


def config(task: str, output_dir) -> RunConfig:
    cfg = desk_scale(RunConfig(task=task, data=DataSource(rows_per_subattack=60), seed=5,
                               output_dir=str(output_dir)))
    train = replace(cfg.fed.train, learning_rate=0.01)
    return replace(cfg, fed=replace(cfg.fed, train=train))


def host() -> dict:
    """This host as the benchmark records it, with the fingerprint of what decides
    float results.

    ``OPENBLAS_CORETYPE`` forces OpenBLAS's kernels, whose results differ in
    the last bit from the ones it picks by CPU feature. When it is set, it is
    recorded and folded into the fingerprint, so a run under it compares no
    checkpoint hashes recorded without it; unset, the fingerprint is the
    benchmark's.
    """
    sys.path.insert(0, str(PERFBENCH))  # the worker imports its siblings by name
    try:
        import worker
    finally:
        sys.path.remove(str(PERFBENCH))
    env = worker.environment()
    coretype = os.environ.get("OPENBLAS_CORETYPE")
    if coretype:
        env["openblas_coretype"] = coretype
        folded = f"{env['fingerprint']} OPENBLAS_CORETYPE={coretype}"
        env["fingerprint"] = hashlib.sha256(folded.encode()).hexdigest()[:16]
    return env


def checkpoint_hashes(run_dir: Path) -> str:
    """``sha256sum``-style lines for every checkpoint of a run, by path."""
    paths = sorted(run_dir.glob("checkpoints/*/*.ckpt"))
    return "".join(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  "
                   f"{p.relative_to(run_dir / 'checkpoints').as_posix()}\n" for p in paths)


def checkpoint_sums(run_dir: Path) -> str:
    """One line per tensor of every checkpoint of a run, by path: the checkpoint,
    the tensor, the sum of its elements and the sum of their squares.

    Each sum is correctly rounded (``math.fsum``) and written with repr, so
    the line is a function of the checkpoint's bytes alone.
    """
    lines = []
    for path in sorted(run_dir.glob("checkpoints/*/*.ckpt")):
        params = load_checkpoint(path).params
        name = path.relative_to(run_dir / "checkpoints").as_posix()
        tensors = [(f"{kind}{layer}", t) for kind in ("wx", "wh", "b")
                   for layer, t in enumerate(getattr(params, kind))]
        for tensor, values in [*tensors, ("w_out", params.w_out), ("b_out", params.b_out)]:
            values = values.ravel().tolist()
            lines.append(f"{name} {tensor} {math.fsum(values)!r} "
                         f"{math.fsum(v * v for v in values)!r}\n")
    return "".join(lines)


def sum_changes(recorded: str, now: str) -> list[str]:
    """The sums of ``now`` that differ from ``recorded``'s by more than the
    tolerance, or the tensors one lists and the other does not."""
    def parse(text):
        return {" ".join(fields[:2]): (float(fields[2]), float(fields[3]))
                for fields in map(str.split, text.splitlines())}
    old, new = parse(recorded), parse(now)
    if old.keys() != new.keys():
        return [f"tensors recorded only: {sorted(old.keys() - new.keys())}",
                f"tensors now only: {sorted(new.keys() - old.keys())}"]
    return [f"{key}: {a!r} -> {b!r}" for key in old for a, b in zip(old[key], new[key])
            if abs(b - a) > SUM_TOLERANCE * max(1.0, abs(a))]


def run(task: str, output_dir) -> Path:
    """Run the ledger's config for ``task`` into ``output_dir``; every strategy must succeed."""
    result = run_experiment(config(task, output_dir))
    if not result.ok:
        raise RuntimeError(f"ledger run of {task} failed: {result.failures}")
    return result.output_dir


def record(task: str) -> None:
    """Rerun ``task`` and overwrite its ledger with the run's tables, hashes and host."""
    target = ledger_dir(task)
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = run(task, Path(tmp) / "run")
        if target.exists():
            shutil.rmtree(target)
        target.mkdir(parents=True)
        for table in TABLES:
            shutil.copyfile(run_dir / f"{table}_{task}.csv", target / f"{table}_{task}.csv")
        (target / CHECKPOINTS).write_text(checkpoint_hashes(run_dir))
        (target / SUMS).write_text(checkpoint_sums(run_dir))
    (target / HOST).write_text(json.dumps(host(), indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    for name in sys.argv[1:] or TASKS:
        record(name)
        print(f"recorded {ledger_dir(name)}")
