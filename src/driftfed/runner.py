"""Experiment orchestration: config, full runs, report rendering.

A run executes pipeline -> timeline -> federation -> metrics for each
configured strategy and writes, per task:

  metrics_<task>.json     the run's result record (all fields incl. timing);
                          ``render_reports`` renders the four tables from it
  accuracy_<task>.csv     protocol accuracy row per strategy (+ Avg column)
  latency_<task>.csv      per-period training seconds, totals, total inference
  cells_<task>.csv        full checkpoint x test-period matrix, metric fields
  composition_<task>.csv  per-strategy period/class/row-count audit
  checkpoints/<strategy>/t<i>.ckpt
  manifest.json           resolved config, seeds, artifact list, statuses

Every file is written to a temp file beside it and renamed into place, so a
failed write leaves the previous version.

Accuracy, cells and composition tables are deterministic for a fixed config;
timing lives only in the latency table, the JSON document and the manifest.
"""

from __future__ import annotations

import json
import numbers
import os
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import timeline as tl
from .atomic import write_atomic
from .errors import ConfigError, DriftFedError, ReportError
from .federation import FedConfig, PeriodInput, run_timeline, save_checkpoint
from .metrics import FAR_DEFINITION, cross_period_eval, protocol_cells
from .nn import ModelArch, TrainConfig
from .pipeline import (ColumnSpec, LabelCodec, apply_scaler, clean, encode_labels,
                       fit_scaler, load_records, records_by_class, stratified_split)
from .synth import NUM_FEATURES, default_column_spec, default_drift_scenario, generate
from .timeline import (StrategyConfig, StrategyComposer, build_schedule, build_test_sets,
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
    train_cap: int = 10_000
    test_cap: int = 2_000
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


# Top-level keys that are RunConfig fields, and JSON key -> field maps where
# the schema names fields differently
_TOP_LEVEL = ("task", "train_fraction", "output_dir", "seed")
_CAPS = {"train": "train_cap", "test": "test_cap"}
_DATA_FILE = {"path": "path", "column_spec": "column_spec_path", "delimiter": "delimiter"}
_SYNTHETIC = {"seed": "synthetic_seed", "rows_per_subattack": "rows_per_subattack"}


def _fields(raw, name: str, schema) -> dict:
    """``raw`` as ``{field: value}``, or ConfigError naming section ``name``.

    ``schema`` maps each JSON key to its field, or lists keys named as fields.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{name}: must be a JSON object, got {type(raw).__name__}")
    schema = schema if isinstance(schema, dict) else dict(zip(schema, schema))
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"{name}: unknown key(s) {unknown}")
    return {schema[k]: v for k, v in raw.items()}


def _build(cls, raw, name: str, schema=None):
    """``cls`` from the keys present in ``raw``; absent fields keep its defaults."""
    kwargs = _fields(raw, name, schema or [f.name for f in fields(cls)])
    try:
        return cls(**kwargs)
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"{name}: {exc}") from None


def config_from_dict(raw: dict) -> RunConfig:
    """Build a RunConfig from parsed JSON.

    A key that is absent takes its dataclass default; a key the schema does
    not have raises :class:`ConfigError` naming its path.
    """
    _fields(raw, "config", [*_TOP_LEVEL, "strategies", "data", "arch", "federation",
                            "caps", "desk_scale"])
    if "task" in raw and raw["task"] not in tl.TASKS:
        raise ConfigError(f"task: must be one of {tl.TASKS}")
    settings = {k: raw[k] for k in _TOP_LEVEL if k in raw}
    settings.update(_fields(raw.get("caps", {}), "caps", _CAPS))
    if "output_dir" not in settings and OUTPUT_DIR_ENV in os.environ:
        settings["output_dir"] = os.environ[OUTPUT_DIR_ENV]

    strategies = raw.get("strategies", [])
    if not isinstance(strategies, list):
        raise ConfigError(f"strategies: must be a JSON list, got {type(strategies).__name__}")
    if strategies:  # an empty list runs every strategy, as an absent one does
        settings["strategies"] = tuple(_build(StrategyConfig, entry, f"strategies[{i}]")
                                       for i, entry in enumerate(strategies))

    data_raw = raw.get("data", {})
    if isinstance(data_raw, dict) and "path" in data_raw:
        data = _build(DataSource, data_raw, "data", _DATA_FILE)
    else:
        synthetic = _fields(data_raw, "data", ["synthetic"]).get("synthetic", {})
        data = _build(DataSource, synthetic, "data.synthetic", _SYNTHETIC)

    # output_dim is accepted but not read: RunConfig derives it from the task
    arch_raw = _fields(raw.get("arch", {}), "arch", [f.name for f in fields(ModelArch)])
    arch = _build(ModelArch, {k: v for k, v in arch_raw.items() if k != "output_dim"}, "arch")

    fed_raw = _fields(raw.get("federation", {}), "federation",
                      [f.name for f in fields(FedConfig)])
    if "train" in fed_raw:
        fed_raw["train"] = _build(TrainConfig, fed_raw["train"], "federation.train")
    fed = _build(FedConfig, fed_raw, "federation")

    cfg = RunConfig(**settings, data=data, arch=arch, fed=fed)
    wrong = _wrong_types(cfg)
    if wrong:
        raise ConfigError("; ".join(wrong.values()))
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
    try:
        return config_from_dict(raw)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _wrong_types(cfg: RunConfig) -> dict[str, str]:
    """Diagnostics for top-level settings of the wrong type, by key path.

    ``config_from_dict`` raises them; ``validate_config`` reports them for a
    config built in code. The integer check is ``ModelArch``'s.
    """
    ints = {"caps.train": cfg.train_cap, "caps.test": cfg.test_cap, "seed": cfg.seed}
    wrong = {name: f"{name}: must be an integer, got {value!r}"
             for name, value in ints.items() if not isinstance(value, (int, np.integer))}
    if not isinstance(cfg.train_fraction, numbers.Real):
        wrong["train_fraction"] = f"train_fraction: must be a number, got {cfg.train_fraction!r}"
    return wrong


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
    wrong = _wrong_types(cfg)
    problems.extend(wrong.values())
    for name, cap in (("caps.train", cfg.train_cap), ("caps.test", cfg.test_cap)):
        if name not in wrong and cap < 1:
            problems.append(f"{name}: must be at least 1")
    if "train_fraction" not in wrong and not 0 < cfg.train_fraction < 1:
        problems.append("train_fraction: must be strictly between 0 and 1")
    if not cfg.data.is_synthetic() and not Path(cfg.data.path).exists():
        problems.append(f"data.path: file not found: {cfg.data.path}")
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
class RunResult:
    output_dir: Path
    metrics: dict          # the metrics document, as written to metrics_<task>.json
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
    """Train and evaluate one strategy.

    Returns its metrics-document entry (with ``checkpoints`` still empty) and
    the timeline result, whose checkpoints the caller saves.
    """
    schedule = prep["schedule"]
    train = prep["train"]
    codec: LabelCodec = prep["codec"]
    strategy_seed = rng_seed_for_period(cfg.seed, strategy, -1)

    composer = StrategyComposer(strategy, schedule, prep["train_segments"],
                                seed=strategy_seed)
    period_inputs = []
    composition: dict[str, dict[str, int]] = {}
    for period_id in composer.training_periods():
        pool = composer.compose(period_id)
        composition[f"t{period_id}"] = {cls: len(rows) for cls, rows in pool.items()}
        clients = partition_iid(pool, cfg.fed.num_clients,
                                rng_seed_for_period(cfg.seed, strategy, period_id))
        period_inputs.append(PeriodInput(
            period_id=period_id,
            client_train=[encode_labels(codec, train, c.train) for c in clients],
            client_val=[encode_labels(codec, train, c.validation) for c in clients],
        ))

    result = run_timeline(strategy, period_inputs, cfg.fed, cfg.arch, strategy_seed)
    reports = cross_period_eval(result.checkpoints, prep["encoded_tests"],
                                codec.num_classes, codec.benign_index)
    protocol = protocol_cells(reports, list(tl.test_periods(cfg.task)))
    entry = {
        "cells": [asdict(r) for r in reports],
        "protocol": {f"t{p}": asdict(r) for p, r in protocol.items()},
        "train_latency_seconds": {f"t{c.period_id}": c.train_wall_clock
                                  for c in result.checkpoints},
        "train_samples": {f"t{c.period_id}": c.train_sample_count
                          for c in result.checkpoints},
        "composition": composition,
        "checkpoints": [],
    }
    return entry, result


def run_experiment(cfg: RunConfig, records=None) -> RunResult:
    """Execute every configured strategy and write all artifacts."""
    problems = validate_config(cfg, records)
    if problems:
        raise ConfigError("invalid run config: " + "; ".join(problems))

    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    prep = prepare_experiment(cfg, records)

    doc = {
        "task": cfg.task,
        "far_definition": FAR_DEFINITION,
        "test_periods": list(tl.test_periods(cfg.task)),
        "strategy_order": [],
        "strategies": {},
    }
    failures: dict[str, str] = {}
    artifacts: list[str] = []
    for strategy in cfg.strategies:
        label = strategy.label
        try:
            entry, result = run_strategy(cfg, prep, strategy)
        except DriftFedError as exc:
            failures[label] = f"{type(exc).__name__}: {exc}"
            continue
        ckpt_dir = out_dir / "checkpoints" / label
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        for ckpt in result.checkpoints:
            path = ckpt_dir / f"t{ckpt.period_id}.ckpt"
            save_checkpoint(path, ckpt)
            entry["checkpoints"].append(str(path.relative_to(out_dir)))
        artifacts.extend(entry["checkpoints"])
        # saved: release this strategy's checkpoints before the next one trains
        result = ckpt = None
        doc["strategy_order"].append(label)
        doc["strategies"][label] = entry

    artifacts.extend(write_reports(out_dir, doc))
    _write_manifest(out_dir, cfg, doc, failures, artifacts)
    return RunResult(out_dir, doc, failures, artifacts)


# --- report rendering --------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.6f}"


def render_reports(doc: dict) -> dict[str, str]:
    """The four delimited tables of a metrics document, by file name.

    Reads the document only, so a run and ``driftfed report`` on its stored
    JSON render the same bytes.
    """
    task = doc["task"]
    test_periods = [f"t{p}" for p in doc["test_periods"]]
    train_periods = [f"t{p}" for p in tl.training_periods(task)]
    far = doc["far_definition"]

    accuracy = [f"# protocol accuracy per test period; {far}",
                ",".join(["strategy", *test_periods, "avg"])]
    latency = ["# wall-clock seconds; training per period, then totals",
               ",".join(["strategy", *(f"train_{p}" for p in train_periods),
                         "train_total", "inference_total"])]
    cells = [f"# full evaluation matrix; {far}",
             "strategy,checkpoint_period,test_period,n_samples,"
             "accuracy,precision_macro,recall_macro,f1_macro,far"]
    composition = ["strategy,period,class,rows"]
    for label in doc["strategy_order"]:
        entry = doc["strategies"][label]
        protocol = [entry["protocol"][p] for p in test_periods]
        accs = [c["accuracy"] for c in protocol]
        accuracy.append(",".join([label, *map(_fmt, accs), _fmt(float(np.mean(accs)))]))

        seconds = entry["train_latency_seconds"]  # static trains in one period only
        latency.append(",".join([
            label, *(_fmt(seconds[p]) if p in seconds else "" for p in train_periods),
            _fmt(sum(seconds[p] for p in train_periods if p in seconds)),
            _fmt(sum(c["inference_seconds"] for c in protocol))]))

        for c in entry["cells"]:
            cells.append(",".join([
                label, str(c["checkpoint_period"]), str(c["test_period"]),
                str(c["n_samples"]), *(_fmt(c[k]) for k in (
                    "accuracy", "precision_macro", "recall_macro", "f1_macro", "far"))]))

        pools = entry["composition"]
        for period in sorted(pools, key=lambda p: int(p[1:])):
            for cls in sorted(pools[period]):
                composition.append(f"{label},{period},{cls},{pools[period][cls]}")

    tables = {"accuracy": accuracy, "latency": latency, "cells": cells,
              "composition": composition}
    return {f"{name}_{task}.csv": "\n".join(lines) + "\n" for name, lines in tables.items()}


def _write_files(out_dir: Path, files: dict[str, str]) -> list[str]:
    for name, content in files.items():
        write_atomic(out_dir / name, [content.encode("utf-8")])
    return list(files)


def write_reports(out_dir: Path, doc: dict) -> list[str]:
    """Write the metrics document and the tables rendered from it."""
    return _write_files(out_dir, {
        **render_reports(doc),
        f"metrics_{doc['task']}.json": json.dumps(doc, indent=2, sort_keys=True) + "\n",
    })


def rerender_reports(run_dir) -> list[str]:
    """Re-render the delimited tables from each stored metrics document.

    A directory without a metrics document, or a document that cannot be
    read or rendered, raises :class:`ReportError` naming it.
    """
    doc_paths = sorted(Path(run_dir).glob("metrics_*.json"))
    if not doc_paths:
        raise ReportError(f"{run_dir}: no metrics_<task>.json document to render")
    written = []
    for doc_path in doc_paths:
        try:
            files = render_reports(json.loads(doc_path.read_text(encoding="utf-8")))
        except (ValueError, KeyError, TypeError, AttributeError, RecursionError,
                DriftFedError) as exc:
            raise ReportError(f"{doc_path}: bad metrics document: {exc!r}") from exc
        written.extend(_write_files(doc_path.parent, files))
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
    # output_dim follows the task
    arch = {k: v for k, v in asdict(cfg.arch).items() if k != "output_dim"}
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
            "train": asdict(cfg.fed.train),
        },
        "caps": {"train": cfg.train_cap, "test": cfg.test_cap},
        "train_fraction": cfg.train_fraction,
        "output_dir": cfg.output_dir,
        "seed": cfg.seed,
    }


def _write_manifest(out_dir: Path, cfg: RunConfig, doc: dict,
                    failures: dict[str, str], artifacts: list[str]) -> None:
    manifest = {
        "config": _config_dict(cfg),
        "master_seed": cfg.seed,
        "strategy_seeds": {s.label: rng_seed_for_period(cfg.seed, s, -1)
                           for s in cfg.strategies},
        "statuses": {**{label: "ok" for label in doc["strategy_order"]},
                     **{label: f"failed: {msg}" for label, msg in failures.items()}},
        "partial": bool(failures),
        "artifacts": sorted(artifacts),
        "timing": {
            label: {"train_total_seconds": sum(entry["train_latency_seconds"].values())}
            for label, entry in doc["strategies"].items()
        },
    }
    write_atomic(out_dir / "manifest.json",
                 [(json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")])
