"""Experiment orchestration: config, full runs, report rendering.

A run executes pipeline -> timeline -> federation -> metrics for each
configured strategy and writes, per task:

  accuracy_<task>.csv     protocol accuracy row per strategy (+ Avg column)
  latency_<task>.csv      per-period training seconds, totals, total inference
  cells_<task>.csv        full checkpoint x test-period matrix, metric fields
  metrics_<task>.json     machine-readable document (all fields incl. timing)
  composition_<task>.csv  per-strategy period/class/row-count audit
  checkpoints/<strategy>/t<i>.ckpt
  manifest.json           resolved config, seeds, artifact list, statuses

Accuracy, cells and composition tables are deterministic for a fixed config;
timing lives only in the latency table, the JSON document and the manifest.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from . import timeline as tl
from .errors import ConfigError, DriftFedError
from .federation import FedConfig, PeriodInput, run_timeline, save_checkpoint
from .metrics import (FAR_DEFINITION, MetricsReport, cross_period_eval,
                      protocol_average, protocol_cells)
from .nn import ModelArch, TrainConfig
from .pipeline import (ColumnSpec, LabelCodec, apply_scaler, clean, encode_labels,
                       fit_scaler, load_records, records_by_class, stratified_split)
from .synth import NUM_FEATURES, default_column_spec, default_drift_scenario, generate
from .timeline import (DEFAULT_NUM_CLIENTS, DEFAULT_TEST_CAP, DEFAULT_TRAIN_CAP,
                       StrategyConfig, StrategyComposer, build_schedule, build_test_sets,
                       partition_iid, rng_seed_for_period, segment_and_cap)

OUTPUT_DIR_ENV = "DRIFTFED_OUTPUT"

ALL_STRATEGIES = (
    StrategyConfig("static"),
    StrategyConfig("cumulative"),
    StrategyConfig("simple"),
    StrategyConfig("representative"),
    StrategyConfig("retain", retain_r=100),
    StrategyConfig("retain", retain_r=500),
    StrategyConfig("retain", retain_r=1000),
    StrategyConfig("avg_equal"),
    StrategyConfig("avg_sample"),
    StrategyConfig("avg_ema"),
)


@dataclass(frozen=True)
class DataSource:
    """Either a synthetic scenario or a delimited file plus column spec."""

    synthetic_seed: int | None = None
    rows_per_subattack: int = 1200
    path: str | None = None
    column_spec_path: str | None = None
    delimiter: str = ","

    def is_synthetic(self) -> bool:
        return self.path is None


@dataclass(frozen=True)
class RunConfig:
    """One experiment. ``arch.output_dim`` always follows the task."""

    task: str = "binary"
    strategies: tuple[StrategyConfig, ...] = ALL_STRATEGIES
    data: DataSource = field(default_factory=DataSource)
    arch: ModelArch = field(default_factory=ModelArch)
    fed: FedConfig = field(default_factory=FedConfig)
    train_cap: int = DEFAULT_TRAIN_CAP
    test_cap: int = DEFAULT_TEST_CAP
    train_fraction: float = 0.8
    output_dir: str = "runs"
    seed: int = 0

    def __post_init__(self):
        if self.task in tl.TASKS:  # an unknown task is left for validate_config
            out = LabelCodec.for_task(self.task).num_classes
            object.__setattr__(self, "arch", replace(self.arch, output_dim=out))


def desk_scale(cfg: RunConfig) -> RunConfig:
    """Shrink to the laptop preset: 1x16 LSTM, 3 rounds, 5 local epochs."""
    arch = replace(cfg.arch, hidden_layers=1, hidden_units=16)
    train = replace(cfg.fed.train, local_epochs=5)
    return replace(cfg, arch=arch, fed=replace(cfg.fed, rounds=3, train=train))


def config_from_dict(raw: dict) -> RunConfig:
    """Build a RunConfig from parsed JSON, applying defaults field by field."""
    task = raw.get("task", "binary")
    if task not in tl.TASKS:
        raise ConfigError(f"task must be one of {tl.TASKS}")

    strategies = []
    for entry in raw.get("strategies", []):
        strategies.append(StrategyConfig(
            kind=entry["kind"],
            retain_r=entry.get("retain_r"),
            ema_alpha=entry.get("ema_alpha"),
        ))
    if not strategies:
        strategies = list(ALL_STRATEGIES)

    data_raw = raw.get("data", {})
    if "path" in data_raw:
        data = DataSource(path=data_raw["path"],
                          column_spec_path=data_raw.get("column_spec"),
                          delimiter=data_raw.get("delimiter", ","))
    else:
        synth = data_raw.get("synthetic", {})
        data = DataSource(synthetic_seed=synth.get("seed"),
                          rows_per_subattack=synth.get("rows_per_subattack", 1200))

    arch_raw = raw.get("arch", {})
    arch = ModelArch(
        input_dim=arch_raw.get("input_dim", 45),
        hidden_layers=arch_raw.get("hidden_layers", 5),
        hidden_units=arch_raw.get("hidden_units", 128),
        seq_len=arch_raw.get("seq_len", 1),
    )

    fed_raw = raw.get("federation", {})
    train_raw = fed_raw.get("train", {})
    train = TrainConfig(
        learning_rate=train_raw.get("learning_rate", 0.001),
        batch_size=train_raw.get("batch_size", 16),
        local_epochs=train_raw.get("local_epochs", 100),
        optimizer=train_raw.get("optimizer", "adam"),
    )
    fed = FedConfig(num_clients=fed_raw.get("num_clients", DEFAULT_NUM_CLIENTS),
                    rounds=fed_raw.get("rounds", 15), train=train)

    caps = raw.get("caps", {})
    cfg = RunConfig(
        task=task, strategies=tuple(strategies), data=data, arch=arch, fed=fed,
        train_cap=caps.get("train", DEFAULT_TRAIN_CAP),
        test_cap=caps.get("test", DEFAULT_TEST_CAP),
        train_fraction=raw.get("train_fraction", 0.8),
        output_dir=raw.get("output_dir",
                           os.environ.get(OUTPUT_DIR_ENV, "runs")),
        seed=raw.get("seed", 0),
    )
    if raw.get("desk_scale"):
        cfg = desk_scale(cfg)
    return cfg


def load_config(path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} must contain a JSON object")
    return config_from_dict(raw)


def validate_config(cfg: RunConfig, records=None) -> list[str]:
    """Diagnostics for every violated constraint; empty means runnable.

    ``records``, when given, is the table a run would use instead of
    ``cfg.data``, so its width is the feature count the arch must match.
    """
    problems: list[str] = []
    if cfg.task not in tl.TASKS:
        problems.append(f"task: must be one of {tl.TASKS}")
    if not cfg.strategies:
        problems.append("strategies: at least one strategy is required")
    for strat in cfg.strategies:
        try:
            strat.check()
        except ConfigError as exc:
            problems.append(f"strategies[{strat.label}]: {exc}")
    if cfg.train_cap < 1:
        problems.append("caps.train: must be at least 1")
    if cfg.test_cap < 1:
        problems.append("caps.test: must be at least 1")
    if not 0 < cfg.train_fraction < 1:
        problems.append("train_fraction: must be strictly between 0 and 1")
    if not cfg.data.is_synthetic() and not Path(cfg.data.path).exists():
        problems.append(f"data.path: file not found: {cfg.data.path}")
    if cfg.fed.seed != FedConfig.seed:
        problems.append("federation.seed: has no effect in a run; client seeds derive "
                        "from `seed`")
    try:
        features = _feature_count(cfg, records)
    except ConfigError as exc:
        problems.append(f"data.column_spec: {exc}")
    else:
        if cfg.arch.feature_width != features:
            problems.append(f"arch: input_dim * seq_len = {cfg.arch.feature_width} must equal "
                            f"the {features} features per row of the data")
    return problems


def _feature_count(cfg: RunConfig, records=None) -> int:
    """Features per row of the data a run reads."""
    if records is not None:
        return records.width
    if cfg.data.is_synthetic():
        return NUM_FEATURES
    return len(_column_spec(cfg).feature_columns)


def _column_spec(cfg: RunConfig) -> ColumnSpec:
    """Columns of the data file: its JSON spec, or the default with input_dim columns."""
    if cfg.data.column_spec_path:
        spec = ColumnSpec.from_json(cfg.data.column_spec_path)
        return replace(spec, delimiter=cfg.data.delimiter)
    return default_column_spec(cfg.arch.input_dim, cfg.data.delimiter)


@dataclass
class StrategyOutcome:
    strategy: StrategyConfig | None
    reports: list[MetricsReport]
    protocol: dict[int, MetricsReport]
    train_latency: dict[int, float]       # period -> wall-clock seconds
    train_samples: dict[int, int]
    composition: dict[int, dict[str, int]]
    checkpoint_paths: list[str]


@dataclass
class RunResult:
    output_dir: Path
    outcomes: dict[str, StrategyOutcome]
    failures: dict[str, str]
    artifacts: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def _load_dataset(cfg: RunConfig):
    if cfg.data.is_synthetic():
        seed = cfg.data.synthetic_seed if cfg.data.synthetic_seed is not None else cfg.seed
        spec = default_drift_scenario(seed, rows_per_subattack=cfg.data.rows_per_subattack)
        return generate(spec)
    return load_records(cfg.data.path, _column_spec(cfg))


def prepare_experiment(cfg: RunConfig, records=None):
    """Shared data preparation: clean, split, scale, segment, cap, test sets.

    Returns what ``run_strategy`` reads: the schedule, the scaled training
    table, the capped training segments per class (row indices into it), the
    encoded test set per period and the label codec.
    """
    if records is None:
        records = _load_dataset(cfg)
    train, test = stratified_split(clean(records), cfg.train_fraction, cfg.seed)
    stats = fit_scaler(train)
    train = apply_scaler(stats, train)
    test = apply_scaler(stats, test)

    schedule = build_schedule(cfg.task)
    n_train_periods = len(tl.training_periods(cfg.task))
    n_test_periods = len(tl.test_periods(cfg.task))

    train_segments = segment_and_cap(records_by_class(train), n_train_periods,
                                     cfg.train_cap, cfg.seed, "cap-train")
    test_segments = segment_and_cap(records_by_class(test), n_test_periods,
                                    cfg.test_cap, cfg.seed, "cap-test")
    codec = LabelCodec.for_task(cfg.task)
    encoded_tests = {period: encode_labels(codec, test, rows)
                     for period, rows in build_test_sets(schedule, test_segments).items()}
    return {
        "schedule": schedule,
        "train": train,
        "train_segments": train_segments,
        "encoded_tests": encoded_tests,
        "codec": codec,
    }


def run_strategy(cfg: RunConfig, prep: dict, strategy: StrategyConfig):
    schedule = prep["schedule"]
    train = prep["train"]
    codec: LabelCodec = prep["codec"]
    strategy_seed = rng_seed_for_period(cfg.seed, strategy, -1)

    composer = StrategyComposer(strategy, schedule, prep["train_segments"],
                                seed=strategy_seed)
    period_inputs = []
    composition: dict[int, dict[str, int]] = {}
    for period_id in composer.training_periods():
        pool = composer.compose(period_id)
        composition[period_id] = {cls: len(rows) for cls, rows in pool.items()}
        clients = partition_iid(pool, cfg.fed.num_clients,
                                rng_seed_for_period(cfg.seed, strategy, period_id))
        period_inputs.append(PeriodInput(
            period_id=period_id,
            client_train=[encode_labels(codec, train, c.train) for c in clients],
            client_val=[encode_labels(codec, train, c.validation) for c in clients],
        ))

    fed = replace(cfg.fed, seed=strategy_seed)
    result = run_timeline(strategy, period_inputs, fed, cfg.arch)
    reports = cross_period_eval(result.checkpoints, prep["encoded_tests"],
                                codec.num_classes, codec.benign_index)
    protocol = protocol_cells(reports, list(tl.test_periods(cfg.task)))
    return StrategyOutcome(
        strategy=strategy,
        reports=reports,
        protocol=protocol,
        train_latency={c.period_id: c.train_wall_clock for c in result.checkpoints},
        train_samples={c.period_id: c.train_sample_count for c in result.checkpoints},
        composition=composition,
        checkpoint_paths=[],
    ), result


def run_experiment(cfg: RunConfig, records=None) -> RunResult:
    """Execute every configured strategy and write all artifacts."""
    problems = validate_config(cfg, records)
    if problems:
        raise ConfigError("invalid run config: " + "; ".join(problems))

    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    prep = prepare_experiment(cfg, records)

    outcomes: dict[str, StrategyOutcome] = {}
    failures: dict[str, str] = {}
    artifacts: list[str] = []
    for strategy in cfg.strategies:
        label = strategy.label
        try:
            outcome, result = run_strategy(cfg, prep, strategy)
        except DriftFedError as exc:
            failures[label] = f"{type(exc).__module__.split('.')[-1]}: {exc}"
            continue
        ckpt_dir = out_dir / "checkpoints" / label
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        for ckpt in result.checkpoints:
            path = ckpt_dir / f"t{ckpt.period_id}.ckpt"
            save_checkpoint(path, ckpt)
            outcome.checkpoint_paths.append(str(path.relative_to(out_dir)))
            artifacts.append(str(path.relative_to(out_dir)))
        outcomes[label] = outcome

    artifacts.extend(write_reports(out_dir, cfg, outcomes))
    _write_manifest(out_dir, cfg, outcomes, failures, artifacts)
    return RunResult(out_dir, outcomes, failures, artifacts)


# --- report rendering --------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.6f}"


def render_accuracy_table(cfg_task: str, outcomes: dict[str, StrategyOutcome]) -> str:
    periods = list(tl.test_periods(cfg_task))
    lines = [f"# protocol accuracy per test period; {FAR_DEFINITION}"]
    lines.append(",".join(["strategy", *(f"t{p}" for p in periods), "avg"]))
    for label, outcome in outcomes.items():
        cells = [outcome.protocol[p].accuracy for p in periods]
        lines.append(",".join([label, *(_fmt(c) for c in cells),
                               _fmt(protocol_average(outcome.protocol))]))
    return "\n".join(lines) + "\n"


def render_latency_table(cfg_task: str, outcomes: dict[str, StrategyOutcome]) -> str:
    periods = list(tl.training_periods(cfg_task))
    lines = ["# wall-clock seconds; training per period, then totals"]
    lines.append(",".join(["strategy", *(f"train_t{p}" for p in periods),
                           "train_total", "inference_total"]))
    for label, outcome in outcomes.items():
        cells = []
        for p in periods:
            cells.append(_fmt(outcome.train_latency[p]) if p in outcome.train_latency else "")
        total = sum(outcome.train_latency.values())
        infer = sum(r.inference_seconds for r in outcome.protocol.values())
        lines.append(",".join([label, *cells, _fmt(total), _fmt(infer)]))
    return "\n".join(lines) + "\n"


def render_cells_table(outcomes: dict[str, StrategyOutcome]) -> str:
    lines = [f"# full evaluation matrix; {FAR_DEFINITION}"]
    lines.append("strategy,checkpoint_period,test_period,n_samples,"
                 "accuracy,precision_macro,recall_macro,f1_macro,far")
    for label, outcome in outcomes.items():
        for r in outcome.reports:
            lines.append(",".join([
                label, str(r.checkpoint_period), str(r.test_period), str(r.n_samples),
                _fmt(r.accuracy), _fmt(r.precision_macro), _fmt(r.recall_macro),
                _fmt(r.f1_macro), _fmt(r.far),
            ]))
    return "\n".join(lines) + "\n"


def render_composition_table(outcomes: dict[str, StrategyOutcome]) -> str:
    lines = ["strategy,period,class,rows"]
    for label, outcome in outcomes.items():
        for period in sorted(outcome.composition):
            for cls in sorted(outcome.composition[period]):
                lines.append(f"{label},t{period},{cls},{outcome.composition[period][cls]}")
    return "\n".join(lines) + "\n"


def metrics_document(cfg: RunConfig, outcomes: dict[str, StrategyOutcome]) -> dict:
    doc = {
        "task": cfg.task,
        "far_definition": FAR_DEFINITION,
        "test_periods": list(tl.test_periods(cfg.task)),
        "strategy_order": list(outcomes),
        "strategies": {},
    }
    for label, outcome in outcomes.items():
        doc["strategies"][label] = {
            "cells": [asdict(r) for r in outcome.reports],
            "protocol": {f"t{p}": asdict(r) for p, r in outcome.protocol.items()},
            "train_latency_seconds": {f"t{p}": s for p, s in outcome.train_latency.items()},
            "train_samples": {f"t{p}": n for p, n in outcome.train_samples.items()},
            "composition": {f"t{p}": counts for p, counts in outcome.composition.items()},
            "checkpoints": outcome.checkpoint_paths,
        }
    return doc


def write_reports(out_dir: Path, cfg: RunConfig,
                  outcomes: dict[str, StrategyOutcome]) -> list[str]:
    task = cfg.task
    written = []
    files = {
        f"accuracy_{task}.csv": render_accuracy_table(task, outcomes),
        f"latency_{task}.csv": render_latency_table(task, outcomes),
        f"cells_{task}.csv": render_cells_table(outcomes),
        f"composition_{task}.csv": render_composition_table(outcomes),
        f"metrics_{task}.json": json.dumps(metrics_document(cfg, outcomes),
                                           indent=2, sort_keys=True) + "\n",
    }
    for name, content in files.items():
        (out_dir / name).write_text(content)
        written.append(name)
    return written


def rerender_reports(run_dir) -> list[str]:
    """Rebuild the delimited tables from a stored metrics JSON document."""
    run_dir = Path(run_dir)
    written = []
    for doc_path in sorted(run_dir.glob("metrics_*.json")):
        doc = json.loads(doc_path.read_text())
        task = doc["task"]
        outcomes = {}
        order = doc.get("strategy_order", sorted(doc["strategies"]))
        for label in order:
            entry = doc["strategies"][label]
            reports = [MetricsReport(**cell) for cell in entry["cells"]]
            protocol = {int(k[1:]): MetricsReport(**v)
                        for k, v in entry["protocol"].items()}
            outcomes[label] = StrategyOutcome(
                strategy=None, reports=reports, protocol=protocol,
                train_latency={int(k[1:]): v
                               for k, v in entry["train_latency_seconds"].items()},
                train_samples={int(k[1:]): v for k, v in entry["train_samples"].items()},
                composition={int(k[1:]): v for k, v in entry["composition"].items()},
                checkpoint_paths=entry["checkpoints"],
            )
        cfg = RunConfig(task=task, output_dir=str(run_dir))
        for name in write_reports(run_dir, cfg, outcomes):
            if not name.startswith("metrics_"):
                written.append(name)
    return written


def _config_dict(cfg: RunConfig) -> dict:
    """``cfg`` in the schema ``config_from_dict`` reads, so a manifest loads back."""
    data = cfg.data
    if data.is_synthetic():
        data_raw = {"synthetic": {"seed": data.synthetic_seed,
                                  "rows_per_subattack": data.rows_per_subattack}}
    else:
        data_raw = {"path": data.path, "column_spec": data.column_spec_path,
                    "delimiter": data.delimiter}
    # output_dim follows the task and each client's seed follows the strategy
    arch = {k: v for k, v in asdict(cfg.arch).items() if k != "output_dim"}
    train = {k: v for k, v in asdict(cfg.fed.train).items() if k != "seed"}
    return {
        "task": cfg.task,
        "strategies": [
            {"kind": s.kind,
             **({"retain_r": s.retain_r} if s.retain_r is not None else {}),
             **({"ema_alpha": s.ema_alpha} if s.ema_alpha is not None else {})}
            for s in cfg.strategies
        ],
        "data": data_raw,
        "arch": arch,
        "federation": {
            "num_clients": cfg.fed.num_clients,
            "rounds": cfg.fed.rounds,
            "train": train,
        },
        "caps": {"train": cfg.train_cap, "test": cfg.test_cap},
        "train_fraction": cfg.train_fraction,
        "output_dir": cfg.output_dir,
        "seed": cfg.seed,
    }


def _write_manifest(out_dir: Path, cfg: RunConfig,
                    outcomes: dict[str, StrategyOutcome],
                    failures: dict[str, str], artifacts: list[str]) -> None:
    manifest = {
        "config": _config_dict(cfg),
        "master_seed": cfg.seed,
        "strategy_seeds": {s.label: rng_seed_for_period(cfg.seed, s, -1)
                           for s in cfg.strategies},
        "statuses": {**{label: "ok" for label in outcomes},
                     **{label: f"failed: {msg}" for label, msg in failures.items()}},
        "partial": bool(failures),
        "artifacts": sorted(artifacts),
        "timing": {
            label: {"train_total_seconds": sum(o.train_latency.values())}
            for label, o in outcomes.items()
        },
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
