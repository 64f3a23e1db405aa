"""The benchmark's workloads: run configurations and input generation.

Each workload turns a seed into a ``RunConfig`` plus the inputs handed to
``run_experiment``. Everything here goes through driftfed's public API.
Sizes are chosen so that one run of a workload takes 1-3 s on a 2-core
host, which lets one benchmark run repeat it about ten times.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    rows_per_subattack: int
    csv: bool              # inputs written by synth.write_delimited, read back by the run
    desk: bool             # desk_scale preset (1x16, 3 rounds, 5 local epochs)
    strategies: tuple[str, ...] | None  # strategy labels; None means all ten
    rounds: int | None = None
    local_epochs: int | None = None
    hidden: tuple[int, int] | None = None  # (layers, units); None keeps the default
    learning_rate: float | None = None


WORKLOADS = {
    w.name: w for w in (
        # Desk preset, all strategies: dispatch-bound batch-16 steps on a 1x16 LSTM.
        # At the preset's rate of 0.001 the model predicts the majority class in
        # this few steps, so its accuracy would not show a change in the
        # arithmetic; at 0.01 it learns and the accuracy differs per strategy.
        Workload("desk-binary", "binary", 80, csv=False, desk=True, strategies=None,
                 learning_rate=0.01),
        # Full 5x128 arch, one round of one epoch: arithmetic- and optimizer-bound
        # steps, 616k-parameter FedAvg, parameter averaging and 19 checkpoints of
        # 4.9 MB. Four strategies keep one run near 3 s.
        Workload("full-arch-sixclass", "sixclass", 50, csv=False, desk=False,
                 strategies=("static", "cumulative", "retain_500", "avg_sample"),
                 rounds=1, local_epochs=1),
        # A CSV written and read back: reading and preparing it is about a third
        # of the run, and writing it about half of set-up. Three rounds at a
        # rate of 0.01 let the model learn, so the accuracy is about the same on
        # every seed; with one round it ranged 0.58-0.73.
        Workload("csv-ingest", "binary", 800, csv=True, desk=False,
                 strategies=("static", "cumulative", "retain_1000"),
                 rounds=3, local_epochs=1, hidden=(1, 16), learning_rate=0.01),
    )
}


def build(workload: Workload, seed: int, out_dir: Path):
    """Return ``(cfg, records)`` for one run; records is None when read from CSV.

    The seed drives both the synthetic scenario and the run's master seed.
    On the CSV workload the generated records are written to ``out_dir`` and
    the returned config points the run at that file.
    """
    # Imported here so run.py can list the workloads before it has checked
    # that the checkout holds the program.
    import driftfed
    from driftfed import synth

    strategies = driftfed.ALL_STRATEGIES
    if workload.strategies is not None:
        by_label = {s.label: s for s in driftfed.ALL_STRATEGIES}
        strategies = tuple(by_label[label] for label in workload.strategies)

    arch = driftfed.ModelArch(output_dim=2 if workload.task == "binary" else 6)
    if workload.hidden is not None:
        arch = replace(arch, hidden_layers=workload.hidden[0], hidden_units=workload.hidden[1])
    cfg = driftfed.RunConfig(task=workload.task, strategies=strategies, arch=arch,
                             output_dir=str(out_dir / "run"), seed=seed)
    if workload.desk:
        cfg = driftfed.desk_scale(cfg)
    fed = cfg.fed
    if workload.rounds is not None:
        fed = replace(fed, rounds=workload.rounds)
    if workload.local_epochs is not None:
        fed = replace(fed, train=replace(fed.train, local_epochs=workload.local_epochs))
    if workload.learning_rate is not None:
        fed = replace(fed, train=replace(fed.train, learning_rate=workload.learning_rate))
    cfg = replace(cfg, fed=fed)

    records = synth.generate(synth.default_drift_scenario(seed, workload.rows_per_subattack))
    if not workload.csv:
        data = driftfed.DataSource(synthetic_seed=seed,
                                   rows_per_subattack=workload.rows_per_subattack)
        return replace(cfg, data=data), records
    path = out_dir / "flows.csv"
    synth.write_delimited(records, path)
    return replace(cfg, data=driftfed.DataSource(path=str(path))), None
