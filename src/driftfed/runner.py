"""Experiment orchestration: config, full runs, report rendering.

A run executes pipeline -> timeline -> federation -> metrics for each
configured strategy and writes, per task:

  metrics_<task>.json     the run's one record: config, strategy seeds, failures
                          and every metric field incl. timing, each cell with its
                          counts by true category and predicted class;
                          ``render_reports`` renders the five tables from it
  accuracy_<task>.csv     protocol accuracy row per strategy (+ Avg column)
  latency_<task>.csv      per-period training seconds, totals, total inference
  cells_<task>.csv        full checkpoint x test-period matrix, metric fields
  composition_<task>.csv  per-strategy period/class/row-count audit
  transfer_<task>.csv     per strategy and family: its recall before, at and
                          after the period it arrives in, from the cells' counts
  checkpoints/<strategy>/t<i>.ckpt
                          one per training period, for each strategy that succeeded

Checkpoints are not keyed by task, so an output directory holds one task's
run: ``validate_config`` refuses a directory that holds another task's
metrics document.

Every file is written to a temp file beside it and renamed into place, so a
failed write leaves the previous version. The metrics document is written
last and removed before the checkpoints are swapped in, so whenever it
exists, every file beside it comes from the run it records.

Accuracy, cells and composition tables are deterministic for a fixed config;
timing lives only in the latency table and the JSON document.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import timeline as tl
from .atomic import read_json, write_atomic, write_json
from .errors import ConfigError, DriftFedError, ReportError, check_field
from .federation import FedConfig, PeriodInput, load_checkpoint, run_timeline, save_checkpoint
from .metrics import FAR_DEFINITION, cross_period_eval, newest_checkpoint, protocol_cells
from .nn import ModelArch, TrainConfig
from .pipeline import (CATEGORIES, CODECS, ColumnSpec, LabelCodec, apply_scaler, clean,
                       concat_rows, encode_labels, fit_scaler, load_records, records_by_class,
                       stratified_split)
from .synth import default_column_spec, default_drift_scenario, generate
from .timeline import (StrategyConfig, StrategyComposer, build_schedule, build_test_sets,
                       partition_iid, rng_seed_for_period, segment_and_cap)

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
    """Either a synthetic scenario or a delimited file plus column spec.

    The column spec names the file's columns and delimiter; a file without
    one has the layout ``driftfed gen-data`` writes, ``f00``..``f44`` and
    ``Attack``, comma-separated.
    """

    synthetic_seed: int | None = None
    rows_per_subattack: int = 1200
    path: str | None = None
    column_spec_path: str | None = None

    def __post_init__(self):
        check_field("synthetic.seed", self.synthetic_seed, "integer", optional=True)
        check_field("synthetic.rows_per_subattack", self.rows_per_subattack, "integer", 1)
        check_field("path", self.path, "string", optional=True)
        check_field("column_spec", self.column_spec_path, "string", optional=True)
        if self.column_spec_path is not None and self.path is None:
            raise ConfigError("column_spec: only a data file has one; set path")

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
        if self.task not in tl.TASKS:
            raise ConfigError(f"task: must be one of {tl.TASKS}, got {self.task!r}")
        if not self.strategies:
            raise ConfigError("strategies: at least one strategy is required")
        labels = [s.label for s in self.strategies]
        for i, label in enumerate(labels):
            if label in labels[:i]:
                raise ConfigError(f"strategies: label {label!r} appears more than once")
        check_field("caps.train", self.train_cap, "integer", 1)
        check_field("caps.test", self.test_cap, "integer", 1)
        check_field("train_fraction", self.train_fraction, "number", 0, 1)
        check_field("output_dir", self.output_dir, "string")
        if not self.output_dir:
            raise ConfigError("output_dir: must name a directory, got ''")
        check_field("seed", self.seed, "integer")
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
_DATA_FILE = {"path": "path", "column_spec": "column_spec_path"}
_SYNTHETIC = {"seed": "synthetic_seed", "rows_per_subattack": "rows_per_subattack"}
# output_dim is not a key: RunConfig derives it from the task
_ARCH = [f.name for f in fields(ModelArch) if f.name != "output_dim"]


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
    except ConfigError as exc:  # it starts with the field's key, so this names its path
        raise ConfigError(f"{name}.{exc}") from None
    except TypeError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def config_from_dict(raw: dict) -> RunConfig:
    """Build a RunConfig from parsed JSON, each key into the field that owns it.

    An absent key takes its dataclass default and a value is checked by its
    dataclass; a key the schema does not have raises :class:`ConfigError`
    naming its path. Nothing else is read: no environment, no preset.
    """
    _fields(raw, "config", [*_TOP_LEVEL, "strategies", "data", "arch", "federation", "caps"])
    settings = {k: raw[k] for k in _TOP_LEVEL if k in raw}
    settings.update(_fields(raw.get("caps", {}), "caps", _CAPS))

    if "strategies" in raw:
        strategies = raw["strategies"]
        if not isinstance(strategies, list):
            raise ConfigError(f"strategies: must be a JSON list, got {type(strategies).__name__}")
        settings["strategies"] = tuple(_build(StrategyConfig, entry, f"strategies[{i}]")
                                       for i, entry in enumerate(strategies))

    data_raw = raw.get("data", {})
    if isinstance(data_raw, dict) and "path" in data_raw:
        data = _build(DataSource, data_raw, "data", _DATA_FILE)
    else:
        synthetic = _fields(data_raw, "data", ["synthetic"]).get("synthetic", {})
        data = _build(DataSource, _fields(synthetic, "data.synthetic", _SYNTHETIC), "data")

    arch = _build(ModelArch, raw.get("arch", {}), "arch", _ARCH)
    fed_raw = _fields(raw.get("federation", {}), "federation",
                      [f.name for f in fields(FedConfig)])
    if "train" in fed_raw:
        fed_raw["train"] = _build(TrainConfig, fed_raw["train"], "federation.train")
    fed = _build(FedConfig, fed_raw, "federation")
    return RunConfig(**settings, data=data, arch=arch, fed=fed)


def load_config(path) -> RunConfig:
    raw = read_json(path, ConfigError)
    try:
        return config_from_dict(raw)  # a document that is not an object is refused as "config"
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def validate_config(cfg: RunConfig, records=None) -> list[str]:
    """Diagnostics that need the filesystem or the data; empty means runnable.

    A malformed field never gets here: its dataclass rejects it. The arch
    must match the data's feature count: 45 for the synthetic scenario and
    for a file without a column spec, the spec's feature columns otherwise,
    and the width of ``records`` when given (the table a run would use
    instead of ``cfg.data``). An output directory that holds another task's
    ``metrics_<task>.json`` is refused by the file's name, unread, since the
    run would overwrite the checkpoints that document lists, and so is an
    output path that is, or lies under, an existing path that is not a
    directory.
    """
    problems: list[str] = []
    out_dir = Path(cfg.output_dir)
    nearest = next(p for p in (out_dir, *out_dir.absolute().parents) if p.exists())
    if not nearest.is_dir():
        problems.append(f"output_dir: {nearest} is not a directory")
    for doc_path in sorted(out_dir.glob("metrics_*.json")):
        if doc_path.name != f"metrics_{cfg.task}.json":
            problems.append(f"output_dir: {doc_path} records another task's run, not "
                            f"{cfg.task!r}; use another output directory")
    if not cfg.data.is_synthetic() and not Path(cfg.data.path).is_file():
        problems.append(f"data.path: not a file: {cfg.data.path!r}")
    try:
        features = len(_column_spec(cfg).feature_columns) if records is None else records.width
    except ConfigError as exc:
        return problems + [f"data.column_spec: {exc}"]
    if cfg.arch.feature_width != features:
        problems.append(f"arch: input_dim * seq_len = {cfg.arch.feature_width} must equal "
                        f"the {features} features per row of the data")
    return problems


def _column_spec(cfg: RunConfig) -> ColumnSpec:
    """Columns of the data: the file's JSON spec, or gen-data's layout."""
    if cfg.data.column_spec_path:
        return ColumnSpec.from_json(cfg.data.column_spec_path)
    return default_column_spec()


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

    Returns what ``run_strategy`` reads: the schedule, the one scaled table,
    the capped training segments per class (row indices into it), the
    encoded test set per period (a ``RowShard`` of the table labeled by
    category, the six-class codec's labels, in either task) and the codec.

    The features are copied once, into the scaled table, and only when the
    run does not own them: a table the run loads or generates, or that
    ``clean`` copies to drop rows, is scaled in place, and a caller's
    ``records`` is left as it was. The scaler is fitted on the training rows
    where they lie. Past that point no labeled set holds features: training
    shards, validation sets and test sets are row indices into the table.
    """
    table = clean(_load_dataset(cfg) if records is None else records)
    train_rows, test_rows = stratified_split(table, cfg.train_fraction, cfg.seed)
    owned = table is not records
    table = apply_scaler(fit_scaler(table, train_rows), table, out=table.X if owned else None)
    schedule = build_schedule(cfg.task)
    n_train_periods = sum(p.has_training for p in schedule)

    train_segments = segment_and_cap(records_by_class(table, train_rows), n_train_periods,
                                     cfg.train_cap, cfg.seed, "cap-train")
    test_segments = segment_and_cap(records_by_class(table, test_rows), len(schedule),
                                    cfg.test_cap, cfg.seed, "cap-test")
    encoded_tests = {period: encode_labels(CODECS["sixclass"], table, rows)
                     for period, rows in build_test_sets(schedule, test_segments).items()}
    return {
        "schedule": schedule,
        "table": table,
        "train_segments": train_segments,
        "encoded_tests": encoded_tests,
        "codec": LabelCodec.for_task(cfg.task),
    }


def run_strategy(cfg: RunConfig, prep: dict, strategy: StrategyConfig, ckpt_dir: Path) -> dict:
    """Train and evaluate one strategy; return its metrics-document entry.

    Each period's checkpoint is saved into ``ckpt_dir`` as the period ends,
    so the run holds one at a time, and evaluation reads them back one at a
    time. The entry lists them where ``run_experiment`` puts them.
    """
    codec: LabelCodec = prep["codec"]
    strategy_seed = rng_seed_for_period(cfg.seed, strategy, -1)

    def encode(rows):
        return encode_labels(codec, prep["table"], rows)

    composer = StrategyComposer(strategy, prep["schedule"], prep["train_segments"],
                                seed=strategy_seed)
    period_inputs = []
    composition: dict[str, dict[str, int]] = {}
    for period_id in composer.training_periods():
        pool = composer.compose(period_id)
        composition[f"t{period_id}"] = {cls: len(rows) for cls, rows in pool.items()}
        # the pool dealt to the clients: their training shards and one validation set
        clients = partition_iid(pool, cfg.fed.num_clients,
                                rng_seed_for_period(cfg.seed, strategy, period_id))
        val_rows = concat_rows(c.validation for c in clients)
        period_inputs.append(PeriodInput(period_id, [encode(c.train) for c in clients],
                                         encode(val_rows) if len(val_rows) else None))

    ckpt_dir.mkdir(parents=True)
    names: list[str] = []
    latency: dict[str, float] = {}
    samples: dict[str, int] = {}

    def save(ckpt) -> None:
        key = f"t{ckpt.period_id}"
        save_checkpoint(ckpt_dir / f"{key}.ckpt", ckpt)
        names.append(f"{key}.ckpt")
        latency[key] = ckpt.train_wall_clock
        samples[key] = ckpt.train_sample_count

    run_timeline(strategy, period_inputs, cfg.fed, cfg.arch, strategy_seed, on_checkpoint=save)
    reports = cross_period_eval((load_checkpoint(ckpt_dir / name) for name in names),
                                prep["encoded_tests"], codec)
    return {
        "cells": [asdict(r) for r in reports],
        "train_latency_seconds": latency,
        "train_samples": samples,
        "composition": composition,
        "checkpoints": [str(Path("checkpoints", strategy.label, name)) for name in names],
    }


def run_experiment(cfg: RunConfig, records=None) -> RunResult:
    """Execute every configured strategy and write all artifacts.

    Strategies save their checkpoints under one staging tree,
    ``.checkpoints.tmp/<label>/``; a strategy that fails with a
    :class:`DriftFedError` (a failure the metrics document records) has its
    subtree removed. After the last strategy ``metrics_<task>.json`` is
    removed and the tree replaces ``checkpoints/`` whole; the tables and
    then the document are written last, so the document is the run's commit
    point. If anything escapes before the swap, the tree is removed and the
    previous document and ``checkpoints/`` are left as they were; after it,
    the directory holds no document until the run ends.
    """
    problems = validate_config(cfg, records)
    if problems:
        raise ConfigError("invalid run config: " + "; ".join(problems))

    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    prep = prepare_experiment(cfg, records)

    failures: dict[str, str] = {}
    doc = {
        "task": cfg.task,
        "config": _config_dict(cfg, records),
        "strategy_seeds": {s.label: rng_seed_for_period(cfg.seed, s, -1)
                           for s in cfg.strategies},
        "far_definition": FAR_DEFINITION,
        "test_periods": list(tl.test_periods(cfg.task)),
        "strategy_order": [],
        "strategies": {},
        "failures": failures,
    }
    artifacts: list[str] = []
    staging = out_dir / ".checkpoints.tmp"
    shutil.rmtree(staging, ignore_errors=True)  # left by a run that was killed
    staging.mkdir()
    try:
        for strategy in cfg.strategies:
            label = strategy.label
            try:
                entry = run_strategy(cfg, prep, strategy, staging / label)
            except DriftFedError as exc:
                shutil.rmtree(staging / label, ignore_errors=True)
                failures[label] = f"{type(exc).__name__}: {exc}"
                continue
            artifacts.extend(entry["checkpoints"])
            doc["strategy_order"].append(label)
            doc["strategies"][label] = entry
        (out_dir / f"metrics_{cfg.task}.json").unlink(missing_ok=True)
        shutil.rmtree(out_dir / "checkpoints", ignore_errors=True)
        staging.rename(out_dir / "checkpoints")
    finally:
        shutil.rmtree(staging, ignore_errors=True)

    artifacts.extend(write_reports(out_dir, doc))
    return RunResult(out_dir, doc, failures, artifacts)


# --- report rendering --------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _counts(cell: dict, codec: LabelCodec) -> np.ndarray:
    """A cell's stored counts, rows by true category, columns by predicted class."""
    counts = np.array(cell["counts"])
    shape = (len(CATEGORIES), codec.num_classes)
    if counts.shape != shape or counts.dtype.kind != "i" or (counts < 0).any():
        raise ReportError(f"a cell's counts must be a {shape[0]}x{shape[1]} matrix of row counts")
    return counts


def _transfer_rows(label: str, cells: list[dict], codec: LabelCodec, last_test: int):
    """One line per family, in order of arrival, from ``cells``' counts.

    Each field is the family's recall, the share of its test rows predicted
    as its class: on its period k's test set by the newest checkpoint at or
    before k - 1 and at or before k, and on the last test set by the newest
    at or before it. A field is empty without that checkpoint or without
    the family's rows.
    """
    counts = {(c["checkpoint_period"], c["test_period"]): _counts(c, codec) for c in cells}
    checkpoints = {ckpt for ckpt, _ in counts}

    def recall(by: int, test: int, category: int) -> str:
        ckpt = newest_checkpoint(checkpoints, by)
        if ckpt is None:
            return ""
        row = counts[ckpt, test][category]
        total = int(row.sum())
        return _fmt(int(row[codec.category_classes[category]]) / total) if total else ""

    for k, family in tl.FAMILY_INTRODUCED_AT.items():
        category = CATEGORIES.index(family)
        yield ",".join([label, family, f"t{k}", recall(k - 1, k, category),
                        recall(k, k, category), recall(last_test, last_test, category)])


def render_reports(doc: dict) -> dict[str, str | None]:
    """The five delimited tables of a metrics document, by file name.

    Reads the document only, so a run and ``driftfed report`` on its stored
    JSON render the same bytes. The accuracy row and the inference total
    read the cells :func:`protocol_cells` picks out of ``cells``; the
    ``protocol`` copies an earlier version stored are ignored. The transfer
    table is None when the cells carry no counts, as an earlier version's do.
    """
    task = doc["task"]
    codec = LabelCodec.for_task(task)
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
    transfer = ["strategy,family,introduced,before,at,last"]
    counted = all("counts" in c for entry in doc["strategies"].values() for c in entry["cells"])
    for label in doc["strategy_order"]:
        entry = doc["strategies"][label]
        protocol = protocol_cells(entry["cells"], doc["test_periods"]).values()
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

        if counted:
            transfer.extend(_transfer_rows(label, entry["cells"], codec,
                                           doc["test_periods"][-1]))

    tables = {"accuracy": accuracy, "latency": latency, "cells": cells,
              "composition": composition, "transfer": transfer if counted else None}
    return {f"{name}_{task}.csv": None if lines is None else "\n".join(lines) + "\n"
            for name, lines in tables.items()}


def _write_files(out_dir: Path, files: dict[str, str | None]) -> list[str]:
    """Write each rendered table; a table rendered as None is not written."""
    written = [name for name, content in files.items() if content is not None]
    for name in written:
        write_atomic(out_dir / name, [files[name].encode("utf-8")])
    return written


def write_reports(out_dir: Path, doc: dict) -> list[str]:
    """Write the tables rendered from the metrics document, then the document."""
    name = f"metrics_{doc['task']}.json"
    written = _write_files(out_dir, render_reports(doc))
    write_json(out_dir / name, doc)
    return [*written, name]


def rerender_reports(run_dir) -> tuple[list[str], list[str]]:
    """Re-render the delimited tables from each stored metrics document.

    Returns the names written and the names skipped: the transfer table of
    a document whose cells carry no counts. A directory without a metrics
    document, or a document that cannot be read or rendered, raises
    :class:`ReportError` naming it.
    """
    doc_paths = sorted(Path(run_dir).glob("metrics_*.json"))
    if not doc_paths:
        raise ReportError(f"{run_dir}: no metrics_<task>.json document to render")
    written, skipped = [], []
    for doc_path in doc_paths:
        doc = read_json(doc_path, ReportError)
        try:
            files = render_reports(doc)
        except (ValueError, KeyError, TypeError, AttributeError, DriftFedError) as exc:
            raise ReportError(f"{doc_path}: bad metrics document: {exc!r}") from exc
        written.extend(_write_files(doc_path.parent, files))
        skipped.extend(name for name, content in files.items() if content is None)
    return written, skipped


def _config_dict(cfg: RunConfig, records=None) -> dict:
    """``cfg`` through the loader's key maps, so ``config_from_dict`` gives it back.

    Given the ``records`` a run read, ``data`` names them by rows, features and
    the SHA-256 of ``X`` then ``sub``: a key the loader refuses by name.
    """
    def keyed(obj, schema) -> dict:
        return {key: getattr(obj, name) for key, name in schema.items()}

    if records is not None:
        digest = hashlib.sha256(records.X)  # a FlowTable's X is C-contiguous
        digest.update(np.ascontiguousarray(records.sub))
        data = {"records": {"rows": len(records), "features": records.width,
                            "sha256": digest.hexdigest()}}
    else:
        data = ({"synthetic": keyed(cfg.data, _SYNTHETIC)} if cfg.data.is_synthetic()
                else keyed(cfg.data, _DATA_FILE))
    return {
        **{key: getattr(cfg, key) for key in _TOP_LEVEL},
        "strategies": [{k: v for k, v in asdict(s).items() if v is not None}
                       for s in cfg.strategies],
        "data": data,
        "arch": {key: getattr(cfg.arch, key) for key in _ARCH},
        "federation": asdict(cfg.fed),
        "caps": keyed(cfg, _CAPS),
    }
