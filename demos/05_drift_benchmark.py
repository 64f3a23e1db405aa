"""The full desk-scale drift benchmark: all ten strategies, binary task.

Each training period introduces one attack family (MQTT, DoS, DDoS, Recon,
Spoofing); t6 only tests. Strategies differ in what they carry forward:
everything (cumulative), nothing (simple), fixed representatives, bounded
sample buffers (retention), or parameter averages instead of data. Expect
cumulative/representative/retention to hold up at t6 while simple and the
averaging variants forget.

Takes a couple of minutes on a laptop CPU.
"""

import tempfile
import time
from pathlib import Path

from driftfed import DataSource, RunConfig, desk_scale, run_experiment

with tempfile.TemporaryDirectory() as tmp:
    cfg = desk_scale(RunConfig(
        task="binary",
        data=DataSource(synthetic_seed=7),
        output_dir=str(Path(tmp) / "run"),
        seed=7,
    ))
    print(f"desk-scale preset: {cfg.arch.hidden_layers}x{cfg.arch.hidden_units} LSTM, "
          f"{cfg.fed.num_clients} clients, {cfg.fed.rounds} rounds, "
          f"{cfg.fed.train.local_epochs} local epochs")
    start = time.perf_counter()
    result = run_experiment(cfg)
    print(f"ran {len(result.metrics['strategies'])} strategies in "
          f"{time.perf_counter() - start:.0f}s\n")

    print((result.output_dir / "accuracy_binary.csv").read_text())
    print((result.output_dir / "latency_binary.csv").read_text())

    simple = result.metrics["strategies"]["simple"]["protocol"]["t6"]
    cumulative = result.metrics["strategies"]["cumulative"]["protocol"]["t6"]
    print(f"forgetting at t6: simple {simple['accuracy']:.1%} "
          f"vs cumulative {cumulative['accuracy']:.1%}")
    print(f"false-alarm rate at t6 (cumulative): {cumulative['far']:.3f}")
