"""The benchmark's tracer still sees the program it measures.

``perfbench/tracing.py`` wraps driftfed's functions under the names their
callers look them up by, and builds the per-layer table from the spans. A
refactor that calls around those names leaves the table silently zero; this
test runs a tiny experiment under the tracer and checks the table is filled.
"""

import importlib.util
from pathlib import Path

from driftfed import federation, metrics, nn, runner, synth, timeline
from driftfed.nn import ModelArch
from driftfed.runner import DataSource, RunConfig, desk_scale, run_experiment
from driftfed.synth import generate
from driftfed.timeline import StrategyConfig

from conftest import tiny_scenario

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
OWNERS = {"runner": runner, "synth": synth, "federation": federation, "nn": nn,
          "metrics": metrics, "StrategyComposer": timeline.StrategyComposer}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_fills_the_per_layer_table(tmp_path):
    tracing = _load_tracing()
    originals = {(owner, attr): getattr(OWNERS[owner], attr)
                 for owner, attr, _, _ in tracing.TARGETS}
    cfg = desk_scale(RunConfig(
        strategies=(StrategyConfig("static"), StrategyConfig("avg_equal")),
        arch=ModelArch(input_dim=8, output_dim=2),
        data=DataSource(synthetic_seed=2), output_dir=str(tmp_path / "run"), seed=2))
    records = generate(tiny_scenario(seed=2, rows=60))

    tracer = tracing.Tracer(run_id="contract")
    tracer.install()
    try:
        for owner, attr, _, _ in tracing.TARGETS:
            assert getattr(OWNERS[owner], attr) is not originals[owner, attr], (owner, attr)
        result = run_experiment(cfg, records)
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert getattr(OWNERS[owner], attr) is original

    assert result.ok
    table = tracing.layer_table(tracer.spans)
    for name in ("nn.steps", "nn.train_local_s", "nn.forward_us_per_step",
                 "nn.backward_us_per_step", "federation.round_s", "federation.fedavg_calls",
                 "metrics.predict_rows", "runner.phase.train_s",
                 # preparation and dealing, which run through runner's helpers
                 "pipeline.prepare_s", "pipeline.encode_rows", "timeline.compose_calls",
                 "timeline.partition_s"):
        assert table[name] > 0, name
