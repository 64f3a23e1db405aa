"""Flow-table ingestion and preprocessing.

Loads delimited network-flow files (CICIoMT2024-style: 45 numeric features
plus a sub-attack label column), cleans them, splits train/test per class,
min-max normalizes on training statistics only, and encodes labels for the
binary or six-class task. The same code path serves synthetic datasets.

A plain-text file is read in one pass over one open handle: each block of
:data:`LOAD_ROWS` rows is one ``np.loadtxt`` call that parses its features
and its labels together, into a matrix allocated once for the row count
that the byte check counted. Whatever that pass cannot vouch for goes to
the row-by-row ``csv.reader`` scan, which is the reference.

:data:`CODECS` holds one :class:`LabelCodec` per task, built once at import;
``timeline.TASKS``, and through it the run config and the CLI, list its keys.

A row set is one :class:`FlowTable`: an (N, F) feature matrix and a
sub-attack code per row. A row's time is its position: each class's rows are
in time order down the table, as the file or the generator lays them out.
The train/test split is two arrays of row indices into one table, which is
min-max scaled once, on statistics of its training rows, read where they
lie. Later stages (segmenting, capping, pools, client shards, test sets)
pass arrays of row indices into that scaled table instead of copying rows.

Where features are copied: the scaled table is the run's loaded or
generated matrix, scaled in place, or one copy of a caller's table
(``apply_scaler``'s ``out``). Past it, :func:`encode_labels` makes every
labeled set a :class:`~driftfed.dataset.RowShard` of that table: client
training shards, which ``nn.train_local`` gathers one stacked batch per
step, and each period's validation and test sets, which ``run_timeline``
and ``cross_period_eval`` gather when they predict.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import read_json, write_json
from .dataset import RowShard
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

# Every label a table can hold, in roster order; a row's ``sub`` code indexes it.
SUB_ATTACKS = (*(sub for subs in ROSTER.values() for sub in subs), REMOVED_SUB_ATTACK)
_CODE_OF = {sub: code for code, sub in enumerate(SUB_ATTACKS)}
# six-class index per sub-attack code; the removed sub-attack is MQTT's
_CATEGORY_INDEX = np.array([i for i, subs in enumerate(ROSTER.values()) for _ in subs]
                           + [CATEGORIES.index("MQTT")], dtype=np.int64)

NO_ROWS = np.empty(0, dtype=np.intp)

# Rows ``fit_scaler`` gathers, and ``clean`` checks, at a time.
SCALER_ROWS = 2**10


def category_of(sub_attack: str) -> str:
    return CATEGORIES[_CATEGORY_INDEX[sub_code(sub_attack)]]


def sub_code(sub_attack: str) -> int:
    try:
        return _CODE_OF[sub_attack]
    except KeyError:
        raise CodecError(f"sub-attack label not in the roster: {sub_attack!r}") from None


def concat_rows(parts) -> np.ndarray:
    """Row-index arrays joined in order; no parts gives an empty index array."""
    return np.concatenate([NO_ROWS, *parts])


@dataclass(frozen=True, eq=False)
class FlowTable:
    """Network-flow rows in columns.

    ``X`` is a C-contiguous (N, F) float64 matrix and ``sub`` the (N,)
    index of each row's label in :data:`SUB_ATTACKS`; codes of any
    non-integer dtype raise :class:`DataError` rather than being truncated.
    Each class's rows are in time order by position. Tables compare equal
    when their shapes, codes and feature bits match.
    """

    X: np.ndarray
    sub: np.ndarray

    def __post_init__(self):
        X = np.ascontiguousarray(self.X, dtype=np.float64)
        sub = np.asarray(self.sub)
        if sub.size and not np.issubdtype(sub.dtype, np.integer):
            raise DataError(f"sub-attack codes must be integers, got dtype {sub.dtype}")
        sub = sub.astype(np.intp, copy=False)
        if X.ndim != 2 or sub.shape != (len(X),):
            raise DataError("a flow table needs an (N, F) matrix and N codes")
        if len(sub) and not 0 <= sub.min() <= sub.max() < len(SUB_ATTACKS):
            raise DataError("sub-attack codes must index SUB_ATTACKS")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "sub", sub)

    @staticmethod
    def of(X, labels) -> "FlowTable":
        """Table from a matrix and label names, rows in time order per class."""
        return FlowTable(X, np.array([sub_code(name) for name in labels], dtype=np.intp))

    def __len__(self) -> int:
        return len(self.sub)

    def __getitem__(self, rows) -> "FlowTable":
        """The rows selected by a slice, index array or mask, as a new table."""
        return FlowTable(self.X[rows], self.sub[rows])

    def __eq__(self, other) -> bool:
        if not isinstance(other, FlowTable):
            return NotImplemented
        return (self.X.shape == other.X.shape
                and np.array_equal(self.sub, other.sub)
                and np.array_equal(self.X.view(np.uint64), other.X.view(np.uint64)))

    @property
    def width(self) -> int:
        return self.X.shape[1]

    @property
    def labels(self) -> list[str]:
        return [SUB_ATTACKS[code] for code in self.sub.tolist()]


def records_by_class(table: FlowTable, rows=None) -> dict[str, np.ndarray]:
    """Each class's subset of ``rows`` (all rows when None), classes in name
    order, rows in table (time) order."""
    rows = np.arange(len(table)) if rows is None else np.sort(rows)
    codes = table.sub[rows]
    counts = np.bincount(codes, minlength=len(SUB_ATTACKS))
    parts = np.split(rows[np.argsort(codes, kind="stable")], np.cumsum(counts)[:-1])
    return {SUB_ATTACKS[code]: parts[code]
            for code in sorted(np.flatnonzero(counts), key=SUB_ATTACKS.__getitem__)}


@dataclass(frozen=True)
class ColumnSpec:
    """Maps file columns to feature positions and the label column."""

    feature_columns: tuple[str, ...]
    label_column: str
    delimiter: str = ","

    @staticmethod
    def from_json(path) -> "ColumnSpec":
        raw = read_json(path, ConfigError)
        try:
            if not isinstance(raw["features"], list):
                raise TypeError("'features' must be a list of column names")
            spec = ColumnSpec(
                feature_columns=tuple(raw["features"]),
                label_column=raw["label"],
                delimiter=raw.get("delimiter", ","),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"{path} is not a column spec "
                              f"({type(exc).__name__}: {exc})") from None
        names = (*spec.feature_columns, spec.label_column)
        if not all(isinstance(name, str) for name in names):
            raise ConfigError(f"{path}: column names must be strings")
        if not (isinstance(spec.delimiter, str) and len(spec.delimiter) == 1):
            raise ConfigError(f"{path}: delimiter must be one character")
        return spec

    def to_json(self, path) -> None:
        write_json(path, {"features": list(self.feature_columns),
                          "label": self.label_column,
                          "delimiter": self.delimiter})


# Bytes of a plain text file: printable ASCII, tab and line breaks. On such
# text numpy's float parser reads every field it accepts as Python's float()
# does; it rejects some that float() accepts (``1_000``), and then the row
# scan decides. Elsewhere they differ: numpy strips "\x1c" around a number.
_PLAIN_TEXT = bytes(range(0x20, 0x7F)) + b"\t\n\r"
_QUOTE = '"'

# Rows ``_load_columns`` parses in one ``np.loadtxt`` call.
LOAD_ROWS = 256

# A label field holds one character more than the longest roster name, so a
# longer label reads as off the roster instead of being cut to fit one.
_LABEL_DTYPE = np.dtype(f"U{max(map(len, SUB_ATTACKS)) + 1}")


def load_records(path, spec: ColumnSpec) -> FlowTable:
    """Read one delimited file into a FlowTable.

    Each class's rows keep the file's row order, their time order. A plain
    text file streams through numpy's C parser (:func:`_load_columns`); any
    other file, or one that parser does not read exactly as ``csv.reader``
    would, goes through the row scan (:func:`_scan_rows`), which raises
    LoadError naming the offending row/column for schema or parse problems,
    and the label and its first row for a sub-attack outside the roster.
    """
    path = Path(path)
    if not path.exists():
        raise LoadError(f"input file not found: {path}")
    if not path.is_file():
        raise LoadError(f"input path is not a file: {path}")
    try:
        table = _load_columns(path, spec)
    except (ValueError, csv.Error):  # UnicodeDecodeError is a ValueError
        table = None
    return table if table is not None else _scan_rows(path, spec)


def _header_positions(reader, path, spec: ColumnSpec) -> tuple[list[int], int]:
    try:
        header = next(reader)
    except StopIteration:
        raise LoadError(f"{path}: file is empty") from None
    positions = {name: i for i, name in enumerate(header)}
    missing = [c for c in (*spec.feature_columns, spec.label_column) if c not in positions]
    if missing:
        raise LoadError(f"{path}: header is missing column(s) {missing}")
    return [positions[c] for c in spec.feature_columns], positions[spec.label_column]


def _load_columns(path: Path, spec: ColumnSpec) -> FlowTable | None:
    """The fast path: features and labels by ``np.loadtxt``, a block at a time.

    The byte check counts the line feeds, so the matrix is allocated once.
    On the open handle past the header, each block of :data:`LOAD_ROWS`
    rows is one ``np.loadtxt`` call that parses the feature columns and the
    label column together; each label becomes its code through
    :data:`_CODE_OF`, the table the row scan reads too. Returns None when
    the file is not plain text, when the parser warns or fails (a ragged,
    blank or badly quoted row), when the rows do not match the count, or
    when a label is off the roster, so the row scan decides (and names the
    problem).
    """
    lines = 0
    last = b"\n"
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            if chunk.translate(None, _PLAIN_TEXT):
                return None
            lines += chunk.count(b"\n")
            last = chunk[-1:]
    lines += last != b"\n"  # a last line without a line feed
    delim = spec.delimiter
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delim)
        feat_idx, label_idx = _header_positions(reader, path, spec)
        if reader.line_num != 1 or not feat_idx:
            return None
        n = lines - 1
        X = np.empty((n, len(feat_idx)))
        sub = np.empty(n, dtype=np.intp)
        dtype = np.dtype([("x", np.float64, (len(feat_idx),)), ("label", _LABEL_DTYPE)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a blank line, for one, makes loadtxt warn
            try:
                for lo in range(0, n, LOAD_ROWS):
                    hi = min(lo + LOAD_ROWS, n)
                    block = np.loadtxt(fh, dtype=dtype, delimiter=delim,
                                       usecols=[*feat_idx, label_idx], quotechar=_QUOTE,
                                       comments=None, ndmin=1, max_rows=hi - lo)
                    if len(block) != hi - lo:
                        return None
                    X[lo:hi] = block["x"]
                    codes = [_CODE_OF.get(name) for name in block["label"].tolist()]
                    if None in codes:
                        return None
                    sub[lo:hi] = codes
            except (ValueError, Warning):
                return None
        if fh.read(1):  # rows the line feeds did not count
            return None
    return FlowTable(X, sub)


def _scan_rows(path: Path, spec: ColumnSpec) -> FlowTable:
    """Row-by-row ``csv.reader`` load; the reference for what a file holds."""
    rows: list[list[float]] = []
    codes: list[int] = []
    row_num = 1
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=spec.delimiter)
        try:
            feat_idx, label_idx = _header_positions(reader, path, spec)
            need = max([*feat_idx, label_idx])
            for row_num, row in enumerate(reader, start=2):
                if len(row) <= need:
                    raise LoadError(f"{path}: row {row_num} has too few fields")
                try:
                    rows.append([float(row[i]) for i in feat_idx])
                except ValueError:
                    bad, i = next((c, i) for c, i in zip(spec.feature_columns, feat_idx)
                                  if not _parses(row[i]))
                    raise LoadError(f"{path}: row {row_num}, column {bad!r}: "
                                    f"cannot parse {row[i]!r} as a number") from None
                try:
                    codes.append(sub_code(row[label_idx]))
                except CodecError as exc:
                    raise LoadError(f"{path}: row {row_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise LoadError(f"{path}: not UTF-8 text ({exc.reason}; "
                            f"rows up to {row_num} decoded)") from None
        except csv.Error as exc:
            raise LoadError(f"{path}: line {reader.line_num}: {exc}") from None
    sub = np.array(codes, dtype=np.intp)
    X = np.array(rows, dtype=np.float64).reshape(len(rows), len(feat_idx))
    return FlowTable(X, sub)


def _parses(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def clean(table: FlowTable) -> FlowTable:
    """Drop rows with non-finite features and the removed sub-attack class.

    Relative order is preserved, so each class stays in time order and
    clean is idempotent. The features are checked :data:`SCALER_ROWS` rows
    at a time, so the check holds one chunk's mask, not one of the matrix.
    """
    keep = table.sub != _CODE_OF[REMOVED_SUB_ATTACK]
    for lo in range(0, len(table), SCALER_ROWS):
        keep[lo:lo + SCALER_ROWS] &= np.isfinite(table.X[lo:lo + SCALER_ROWS]).all(axis=1)
    return table if keep.all() else table[keep]


def stratified_split(table: FlowTable, train_fraction: float, seed: int):
    """Per-class split into (train_rows, test_rows), row indices into ``table``.

    Train size per class is round-half-up of fraction*n; membership is a
    seeded uniform draw but both halves keep within-class chronological
    order. Classes with fewer than 2 rows go entirely to train (with a
    warning). Both halves list their classes in name order.
    """
    if not 0 < train_fraction < 1:
        raise ConfigError("train_fraction must be strictly between 0 and 1")
    train, test = [], []
    for cls, rows in records_by_class(table).items():
        n = len(rows)
        if n < 2:
            warnings.warn(f"class {cls!r} has {n} row(s); assigning all to train")
            train.append(rows)
            continue
        k = int(np.floor(train_fraction * n + 0.5))
        chosen = rng_for(seed, "split", cls).permutation(n)[:k]
        mask = np.zeros(n, dtype=bool)
        mask[chosen] = True
        train.append(rows[mask])
        test.append(rows[~mask])
    return concat_rows(train), concat_rows(test)


@dataclass(frozen=True)
class ScalerStats:
    """Per-feature min/max fitted on training rows only."""

    mins: np.ndarray
    maxs: np.ndarray


def fit_scaler(table: FlowTable, rows=None) -> ScalerStats:
    """Per-feature min and max over ``rows`` of ``table`` (all rows when None).

    The rows are read :data:`SCALER_ROWS` at a time, so the fit holds one
    chunk of them, not a copy of the training rows. Each chunk's min and max
    are folded in with ``np.minimum(acc, chunk)`` and ``np.maximum``, which
    take the later operand on a tie, as the reduction over ``table.X[rows]``
    does row by row: a tied zero keeps the sign that reduction gives it.
    """
    rows = np.arange(len(table)) if rows is None else np.asarray(rows)
    if not len(rows):
        raise DataError("cannot fit a scaler on an empty training set")
    mins = maxs = None
    for lo in range(0, len(rows), SCALER_ROWS):
        chunk = table.X[rows[lo:lo + SCALER_ROWS]]
        if mins is None:
            mins, maxs = chunk.min(axis=0), chunk.max(axis=0)
        else:
            np.minimum(mins, chunk.min(axis=0), out=mins)
            np.maximum(maxs, chunk.max(axis=0), out=maxs)
    return ScalerStats(mins, maxs)


def apply_scaler(stats: ScalerStats, table: FlowTable, out=None) -> FlowTable:
    """Min-max transform; constant features map to 0, outputs clamp to [0, 1].

    Computed in one output array, with no full-size temporaries: a new one,
    or ``out``, which may be ``table.X`` itself to scale the table in place.
    """
    span = stats.maxs - stats.mins
    scaled = np.subtract(table.X, stats.mins, out=out)
    scaled /= np.where(span > 0, span, 1.0)
    np.clip(scaled, 0.0, 1.0, out=scaled)
    scaled[:, span == 0] = 0.0
    return FlowTable(scaled, table.sub)


@dataclass(frozen=True, eq=False)
class LabelCodec:
    """A task's class names and ``lut``, its class index per sub-attack code."""

    task: str
    class_names: tuple[str, ...]
    lut: np.ndarray

    def __post_init__(self):
        self.lut.setflags(write=False)  # one array per task, shared by every caller

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @property
    def category_classes(self) -> np.ndarray:
        """The class index of each roster category, in :data:`CATEGORIES` order."""
        classes = np.empty(len(CATEGORIES), dtype=np.int64)
        classes[_CATEGORY_INDEX] = self.lut
        return classes


CODECS = {
    "binary": LabelCodec("binary", ("Benign", "Attack"), (_CATEGORY_INDEX != 0).astype(np.int64)),
    "sixclass": LabelCodec("sixclass", CATEGORIES, _CATEGORY_INDEX),
}


def encode_labels(codec: LabelCodec, table: FlowTable, rows) -> RowShard:
    """``rows`` of ``table`` as row indices into its matrix, which the shard
    shares, and their class indices. The mapping never depends on the subset."""
    return RowShard(table.X, rows, codec.lut[table.sub[rows]])
