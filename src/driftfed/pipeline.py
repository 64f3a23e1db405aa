"""Flow-record ingestion and preprocessing.

Loads delimited network-flow files (CICIoMT2024-style: 45 numeric features
plus a sub-attack label column), cleans them, splits train/test per class,
min-max normalizes on training statistics only, and encodes labels for the
binary or six-class task. The same code path serves synthetic datasets.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dataset import LabeledData
from .errors import CodecError, ConfigError, DataError, LoadError
from .seeds import rng_for

# The class roster: every sub-attack kept after cleaning, by category. Benign
# comes first and the categories follow in six-class index order; the label
# codec and the synthetic draw order both depend on this order.
ROSTER = {
    "Benign": ("Benign",),
    "MQTT": ("MQTT-Malformed_Data", "MQTT-DoS-Connect_Flood",
             "MQTT-DDoS-Publish_Flood", "MQTT-DDoS-Connect_Flood"),
    "DoS": ("TCP_IP-DoS-TCP", "TCP_IP-DoS-ICMP", "TCP_IP-DoS-SYN", "TCP_IP-DoS-UDP"),
    "DDoS": ("TCP_IP-DDoS-SYN", "TCP_IP-DDoS-ICMP", "TCP_IP-DDoS-UDP", "TCP_IP-DDoS-TCP"),
    "Recon": ("Recon-Ping_Sweep", "Recon-VulScan", "Recon-OS_Scan", "Recon-Port_Scan"),
    "Spoofing": ("ARP_Spoofing",),
}

CATEGORIES = tuple(ROSTER)

# Dropped entirely during cleaning: no valid instances survive preprocessing.
REMOVED_SUB_ATTACK = "MQTT-DoS-Publish_Flood"

_CATEGORY_OF = {sub: cat for cat, subs in ROSTER.items() for sub in subs}
_CATEGORY_OF[REMOVED_SUB_ATTACK] = "MQTT"


def category_of(sub_attack: str) -> str:
    try:
        return _CATEGORY_OF[sub_attack]
    except KeyError:
        raise CodecError(f"sub-attack label not in the roster: {sub_attack!r}") from None


@dataclass(frozen=True, slots=True)
class FlowRecord:
    """One network-flow sample."""

    features: np.ndarray
    sub_attack: str
    category: str
    order_index: int

    @staticmethod
    def make(features: np.ndarray, sub_attack: str, order_index: int) -> "FlowRecord":
        return FlowRecord(features, sub_attack, category_of(sub_attack), order_index)


def records_by_class(records) -> dict[str, list[FlowRecord]]:
    grouped: dict[str, list[FlowRecord]] = {}
    for rec in records:
        grouped.setdefault(rec.sub_attack, []).append(rec)
    return grouped


@dataclass(frozen=True)
class ColumnSpec:
    """Maps file columns to feature positions and the label column."""

    feature_columns: tuple[str, ...]
    label_column: str
    delimiter: str = ","

    @staticmethod
    def from_json(path) -> "ColumnSpec":
        raw = json.loads(Path(path).read_text())
        return ColumnSpec(
            feature_columns=tuple(raw["features"]),
            label_column=raw["label"],
            delimiter=raw.get("delimiter", ","),
        )

    def to_json(self, path) -> None:
        Path(path).write_text(json.dumps(
            {"features": list(self.feature_columns),
             "label": self.label_column,
             "delimiter": self.delimiter},
            indent=2,
        ) + "\n")


def load_records(path, spec: ColumnSpec) -> list[FlowRecord]:
    """Read one delimited file into FlowRecords.

    ``order_index`` counts row order within each sub-attack class. Raises
    LoadError naming the offending row/column for schema or parse problems,
    and the label and its first row for a sub-attack outside the roster.
    """
    path = Path(path)
    if not path.exists():
        raise LoadError(f"input file not found: {path}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh, delimiter=spec.delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise LoadError(f"{path}: file is empty") from None
        positions = {name: i for i, name in enumerate(header)}
        missing = [c for c in (*spec.feature_columns, spec.label_column) if c not in positions]
        if missing:
            raise LoadError(f"{path}: header is missing column(s) {missing}")
        feat_idx = [positions[c] for c in spec.feature_columns]
        label_idx = positions[spec.label_column]

        records: list[FlowRecord] = []
        counters: dict[str, int] = {}
        for row_num, row in enumerate(reader, start=2):
            if len(row) <= max(*feat_idx, label_idx):
                raise LoadError(f"{path}: row {row_num} has too few fields")
            try:
                feats = np.array([float(row[i]) for i in feat_idx])
            except ValueError:
                bad = next(c for c, i in zip(spec.feature_columns, feat_idx)
                           if not _parses(row[i]))
                raise LoadError(
                    f"{path}: row {row_num}, column {bad!r}: "
                    f"cannot parse {row[positions[bad]]!r} as a number"
                ) from None
            label = row[label_idx]
            try:
                category = category_of(label)
            except CodecError as exc:
                raise LoadError(f"{path}: row {row_num}: {exc}") from None
            idx = counters.get(label, 0)
            counters[label] = idx + 1
            records.append(FlowRecord(feats, label, category, idx))
    return records


def _parses(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def clean(records: list[FlowRecord]) -> list[FlowRecord]:
    """Drop rows with non-finite features and the removed sub-attack class.

    Relative order is preserved and order_index is reassigned densely per
    class, so clean is idempotent.
    """
    counters: dict[str, int] = {}
    out: list[FlowRecord] = []
    for rec in records:
        if rec.sub_attack == REMOVED_SUB_ATTACK:
            continue
        if not np.all(np.isfinite(rec.features)):
            continue
        idx = counters.get(rec.sub_attack, 0)
        counters[rec.sub_attack] = idx + 1
        out.append(rec if rec.order_index == idx else replace(rec, order_index=idx))
    return out


def stratified_split(records, train_fraction: float, seed: int):
    """Per-class split into (train, test).

    Train size per class is round-half-up of fraction*n; membership is a
    seeded uniform draw but both halves keep within-class chronological
    order. Classes with fewer than 2 rows go entirely to train (with a
    warning).
    """
    if not 0 < train_fraction < 1:
        raise ConfigError("train_fraction must be strictly between 0 and 1")
    train: list[FlowRecord] = []
    test: list[FlowRecord] = []
    grouped = records_by_class(records)
    for cls in sorted(grouped):
        rows = sorted(grouped[cls], key=lambda r: r.order_index)
        n = len(rows)
        if n < 2:
            warnings.warn(f"class {cls!r} has {n} row(s); assigning all to train")
            train.extend(rows)
            continue
        k = int(np.floor(train_fraction * n + 0.5))
        chosen = rng_for(seed, "split", cls).permutation(n)[:k]
        mask = np.zeros(n, dtype=bool)
        mask[chosen] = True
        train.extend(r for r, m in zip(rows, mask) if m)
        test.extend(r for r, m in zip(rows, mask) if not m)
    return train, test


@dataclass(frozen=True)
class ScalerStats:
    """Per-feature min/max fitted on training rows only."""

    mins: np.ndarray
    maxs: np.ndarray


def fit_scaler(train: list[FlowRecord]) -> ScalerStats:
    if not train:
        raise DataError("cannot fit a scaler on an empty training set")
    matrix = np.stack([r.features for r in train])
    return ScalerStats(matrix.min(axis=0), matrix.max(axis=0))


def apply_scaler(stats: ScalerStats, records: list[FlowRecord]) -> list[FlowRecord]:
    """Min-max transform; constant features map to 0, outputs clamp to [0, 1]."""
    if not records:
        return []
    matrix = np.stack([r.features for r in records])
    span = stats.maxs - stats.mins
    safe = np.where(span > 0, span, 1.0)
    scaled = np.clip((matrix - stats.mins) / safe, 0.0, 1.0)
    scaled[:, span == 0] = 0.0
    return [replace(rec, features=scaled[i]) for i, rec in enumerate(records)]


@dataclass(frozen=True)
class LabelCodec:
    """Global sub-attack to class-index mapping, identical for every subset."""

    task: str
    class_names: tuple[str, ...]

    @staticmethod
    def binary() -> "LabelCodec":
        return LabelCodec("binary", ("Benign", "Attack"))

    @staticmethod
    def six_class() -> "LabelCodec":
        return LabelCodec("sixclass", CATEGORIES)

    @staticmethod
    def for_task(task: str) -> "LabelCodec":
        if task == "binary":
            return LabelCodec.binary()
        if task == "sixclass":
            return LabelCodec.six_class()
        raise ConfigError(f"unknown task {task!r}")

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @property
    def benign_index(self) -> int:
        return 0

    def encode_one(self, record: FlowRecord) -> int:
        if self.task == "binary":
            return 0 if record.category == "Benign" else 1
        try:
            return CATEGORIES.index(record.category)
        except ValueError:
            raise CodecError(f"category not mapped: {record.category!r}") from None


def encode_labels(codec: LabelCodec, records: list[FlowRecord],
                  input_dim: int | None = None) -> LabeledData:
    """Stack features and class indices; the mapping never depends on the subset."""
    if not records:
        return LabeledData(np.zeros((0, input_dim or 0)), np.zeros(0, dtype=np.int64))
    X = np.stack([r.features for r in records])
    y = np.array([codec.encode_one(r) for r in records], dtype=np.int64)
    return LabeledData(X, y)
