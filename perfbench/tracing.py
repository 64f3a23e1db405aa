"""Spans around driftfed's public functions, and the per-layer table built from them.

The tracer replaces each function under the name its caller looks it up by
(``runner.clean``, ``federation.train_local``, ``nn.forward``, ...), so the
program's own code is untouched. A span is ``(name, start, end, parent,
run_id, n)``, where ``n`` is a work count taken at the call (rows, bytes).
Spans stay in memory and are written once, at the end of a run.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

LAYERS = ("synth", "pipeline", "timeline", "nn", "federation", "metrics", "runner")


def _rows_arg(index):
    return lambda args, result: len(args[index])


def _rows_result(args, result):
    return len(result)


def _file_bytes(args, result):
    return os.path.getsize(args[0])


# (module attribute to replace, span name, work count or None). The module is
# the caller's namespace: runner imports pipeline's functions by name, so
# ``runner.clean`` is what a run calls.
TARGETS = (
    ("runner", "run_experiment", "runner.run_experiment", None),
    ("runner", "prepare_experiment", "runner.prepare_experiment", None),
    ("runner", "run_strategy", "runner.run_strategy", None),
    ("runner", "write_reports", "runner.write_reports", None),
    ("synth", "generate", "synth.generate", _rows_result),
    ("runner", "generate", "synth.generate", _rows_result),
    ("synth", "write_delimited", "synth.write_delimited", _rows_arg(0)),
    ("runner", "load_records", "pipeline.load_records", _rows_result),
    ("runner", "clean", "pipeline.clean", None),
    ("runner", "stratified_split", "pipeline.stratified_split", None),
    ("runner", "fit_scaler", "pipeline.fit_scaler", None),
    ("runner", "apply_scaler", "pipeline.apply_scaler", None),
    ("runner", "records_by_class", "pipeline.records_by_class", None),
    ("runner", "encode_labels", "pipeline.encode_labels", _rows_result),
    ("runner", "build_schedule", "timeline.build_schedule", None),
    ("runner", "segment_and_cap", "timeline.segment_and_cap", None),
    ("runner", "build_test_sets", "timeline.build_test_sets", None),
    ("runner", "partition_iid", "timeline.partition_iid", None),
    ("StrategyComposer", "compose", "timeline.compose", None),
    ("runner", "run_timeline", "federation.run_timeline", None),
    ("runner", "save_checkpoint", "federation.save_checkpoint", _file_bytes),
    ("federation", "run_round", "federation.run_round", None),
    ("federation", "fedavg_aggregate", "federation.fedavg_aggregate", None),
    ("federation", "init_from_history", "federation.init_from_history", None),
    ("federation", "train_local", "nn.train_local", None),
    ("federation", "predict", "nn.predict", _rows_arg(1)),
    ("nn", "forward", "nn.forward", None),
    ("nn", "backward", "nn.backward", None),
    ("runner", "cross_period_eval", "metrics.cross_period_eval", None),
    ("runner", "protocol_cells", "metrics.protocol_cells", None),
    ("metrics", "predict", "nn.predict", _rows_arg(1)),
)


class Tracer:
    """Records spans for one run; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        from driftfed import federation, metrics, nn, runner, synth, timeline

        owners = {"runner": runner, "synth": synth, "federation": federation,
                  "nn": nn, "metrics": metrics,
                  "StrategyComposer": timeline.StrategyComposer}
        for owner_name, attr, name, count in TARGETS:
            owner = owners[owner_name]
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, count))
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, fn, name, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run_id, n in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run_id": run_id, "n": n}) + "\n")


def layer_table(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed by their BENCHMARK.json names."""
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]

    total = defaultdict(float)      # name -> summed duration
    calls = defaultdict(int)
    work = defaultdict(int)
    by_parent = defaultdict(float)  # (name, parent name) -> summed duration
    rows_by_parent = defaultdict(int)
    self_by_layer = defaultdict(float)
    self_by_name = defaultdict(float)
    for i, (name, _, _, parent, _, n) in enumerate(spans):
        total[name] += dur[i]
        calls[name] += 1
        work[name] += n
        parent_name = spans[parent][0] if parent >= 0 else None
        by_parent[name, parent_name] += dur[i]
        rows_by_parent[name, parent_name] += n
        self_time = dur[i] - child_time[i]
        self_by_name[name] += self_time
        self_by_layer[name.split(".", 1)[0]] += self_time

    def per(a, b):
        return a / b if b else 0.0

    steps = calls["nn.backward"]
    round_train = by_parent["nn.train_local", "federation.run_round"]
    eval_rows = rows_by_parent["nn.predict", "metrics.cross_period_eval"]
    eval_predict_s = by_parent["nn.predict", "metrics.cross_period_eval"]
    load_s = (by_parent["pipeline.load_records", "runner.prepare_experiment"]
              + by_parent["synth.generate", "runner.prepare_experiment"])
    evaluate_s = total["metrics.cross_period_eval"] + total["metrics.protocol_cells"]
    table = {
        "nn.steps": steps,
        "nn.train_local_s": total["nn.train_local"],
        "nn.forward_us_per_step": 1e6 * per(by_parent["nn.forward", "nn.train_local"], steps),
        "nn.backward_us_per_step": 1e6 * per(total["nn.backward"], steps),
        "nn.opt_us_per_step": 1e6 * per(self_by_name["nn.train_local"], steps),
        "federation.round_s": total["federation.run_round"],
        "federation.round_self_s": total["federation.run_round"] - round_train,
        "federation.fedavg_s": total["federation.fedavg_aggregate"],
        "federation.fedavg_calls": calls["federation.fedavg_aggregate"],
        "federation.init_history_s": total["federation.init_from_history"],
        "federation.val_predict_s": by_parent["nn.predict", "federation.run_timeline"],
        "federation.ckpt_write_s": total["federation.save_checkpoint"],
        "federation.ckpt_bytes": work["federation.save_checkpoint"],
        "metrics.eval_s": total["metrics.cross_period_eval"],
        "metrics.predict_rows": eval_rows,
        "metrics.predict_rows_per_s": per(eval_rows, eval_predict_s),
        "pipeline.load_s": total["pipeline.load_records"],
        "pipeline.load_rows_per_s": per(work["pipeline.load_records"],
                                        total["pipeline.load_records"]),
        "pipeline.prepare_s": sum(total[f"pipeline.{f}"] for f in (
            "clean", "stratified_split", "fit_scaler", "apply_scaler")),
        "pipeline.encode_s": total["pipeline.encode_labels"],
        "pipeline.encode_rows": work["pipeline.encode_labels"],
        "timeline.segment_s": total["timeline.segment_and_cap"],
        "timeline.compose_s": total["timeline.compose"],
        "timeline.compose_calls": calls["timeline.compose"],
        "timeline.partition_s": total["timeline.partition_iid"],
        "synth.generate_s": total["synth.generate"],
        "synth.write_s": total["synth.write_delimited"],
        "synth.write_rows_per_s": per(work["synth.write_delimited"],
                                      total["synth.write_delimited"]),
        "runner.phase.load_s": load_s,
        "runner.phase.prepare_s": total["runner.prepare_experiment"] - load_s,
        "runner.phase.compose_encode_s": (total["runner.run_strategy"]
                                          - total["federation.run_timeline"] - evaluate_s),
        "runner.phase.train_s": total["federation.run_timeline"],
        "runner.phase.evaluate_s": evaluate_s,
        "runner.phase.write_s": (total["runner.run_experiment"]
                                 - total["runner.prepare_experiment"]
                                 - total["runner.run_strategy"]),
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        table[f"{layer}.self_s"] = self_by_layer[layer]
    return table
