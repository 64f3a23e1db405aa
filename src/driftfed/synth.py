"""Synthetic flow-table generation with controllable family divergence.

Each attack family sits at a configurable mean in feature space; rows are
isotropic Gaussian draws around it, clipped to a bounded range so min-max
scaling is exercised. The default drift scenario draws the class roster
(``pipeline.ROSTER``: 17 sub-attacks plus Benign, six categories) at desk scale
and places the MQTT and DDoS families farthest apart so cross-family
generalization is visibly asymmetric.

:class:`FamilySpec` and :class:`ScenarioSpec` check themselves when built.
:func:`write_delimited` writes a table as the CSV the loader reads, a block
of :data:`WRITE_ROWS` rows at a time, atomically.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import write_atomic
from .errors import ConfigError, check_field
from .pipeline import (CATEGORIES, ROSTER, SUB_ATTACKS, ColumnSpec, FlowTable, category_of,
                       sub_code)
from .seeds import rng_for

DEFAULT_CLIP = (0.0, 10.0)

# Features per flow in the default scenario, as in CICIoMT2024.
NUM_FEATURES = 45


@dataclass(frozen=True)
class FamilySpec:
    category: str
    sub_attacks: tuple[str, ...]
    mean: np.ndarray
    scale: float
    rows_per_subattack: int

    def __post_init__(self):
        name = f"family {self.category!r}"
        if self.category not in CATEGORIES:
            raise ConfigError(f"unknown category {self.category!r}")
        check_field(f"{name}: rows_per_subattack", self.rows_per_subattack, "integer", 1)
        check_field(f"{name}: scale", self.scale, "number", 0)
        if not np.isfinite(self.mean).all():
            raise ConfigError(f"{name}: mean must be finite")
        if not self.sub_attacks:
            raise ConfigError(f"{name} has no sub-attacks")
        for k, sub in enumerate(self.sub_attacks):
            if sub not in SUB_ATTACKS or category_of(sub) != self.category:
                raise ConfigError(f"{name}: {sub!r} is not a "
                                  f"{self.category} sub-attack of the roster")
            if sub in self.sub_attacks[:k]:
                raise ConfigError(f"{name}: sub-attack {sub!r} is listed twice")


@dataclass(frozen=True)
class ScenarioSpec:
    num_features: int = NUM_FEATURES
    families: tuple[FamilySpec, ...] = ()
    seed: int = 0
    clip: tuple[float, float] = DEFAULT_CLIP

    def __post_init__(self):
        check_field("num_features", self.num_features, "integer", 1)
        if not self.families:
            raise ConfigError("scenario needs at least one family")
        lo, hi = self.clip
        if not hi > lo:
            raise ConfigError("clip range must be non-empty")
        categories = [fam.category for fam in self.families]
        for k, fam in enumerate(self.families):
            if np.shape(fam.mean) != (self.num_features,):
                raise ConfigError(f"family {fam.category!r}: mean length {np.shape(fam.mean)} "
                                  f"!= num_features {self.num_features}")
            if fam.category in categories[:k]:
                raise ConfigError(f"duplicate family {fam.category!r}")


def generate(spec: ScenarioSpec) -> FlowTable:
    """Draw the full table for a scenario; deterministic by spec.seed.

    Rows come family by family and sub-attack by sub-attack, each block in
    draw order, which is the class's time order.

    Each block is drawn into its rows of one preallocated feature matrix.
    """
    lo, hi = spec.clip
    total = sum(fam.rows_per_subattack * len(fam.sub_attacks) for fam in spec.families)
    X = np.empty((total, spec.num_features))
    sub = np.empty(total, dtype=np.intp)
    start = 0
    for fam in spec.families:
        for name in fam.sub_attacks:
            rng = rng_for(spec.seed, "family", fam.category, "sub", name)
            stop = start + fam.rows_per_subattack
            X[start:stop] = rng.normal(fam.mean, fam.scale,
                                       size=(stop - start, spec.num_features))
            np.clip(X[start:stop], lo, hi, out=X[start:stop])
            sub[start:stop] = sub_code(name)
            start = stop
    return FlowTable(X, sub)


def default_drift_scenario(seed: int, rows_per_subattack: int = 1200) -> ScenarioSpec:
    """Desk-scale scenario over the full timeline roster.

    Families occupy disjoint 8-feature blocks offset from a flat benign
    baseline. MQTT and DDoS share a block with opposite signs, making them
    the farthest-apart pair, so a detector fitted to one actively misreads
    the other. Benign gets four times the per-sub-attack row count (benign
    traffic dominates real captures), which also keeps each period's pool
    roughly label-balanced against a four-member attack family.

    ``rows_per_subattack`` is checked as given, before Benign's multiple of
    it is taken.
    """
    check_field("rows_per_subattack", rows_per_subattack, "integer", 1)
    num_features = NUM_FEATURES
    base = np.full(num_features, 5.0)
    offset = 2.5
    blocks = {"MQTT": (0, +offset), "DDoS": (0, -offset), "DoS": (8, +offset),
              "Recon": (16, +offset), "Spoofing": (24, +offset)}

    families = [FamilySpec("Benign", ROSTER["Benign"], base.copy(),
                           0.8, 4 * rows_per_subattack)]
    for category in CATEGORIES[1:]:
        start, delta = blocks[category]
        mean = base.copy()
        mean[start:start + 8] += delta
        families.append(FamilySpec(category, ROSTER[category], mean,
                                   0.8, rows_per_subattack))

    return ScenarioSpec(num_features=num_features, families=tuple(families), seed=seed)


def feature_columns(num_features: int) -> tuple[str, ...]:
    return tuple(f"f{i:02d}" for i in range(num_features))


def default_column_spec(num_features: int = NUM_FEATURES) -> ColumnSpec:
    return ColumnSpec(feature_columns(num_features), "Attack")


# Rows ``write_delimited`` formats into one string and writes at a time.
WRITE_ROWS = 64

# Characters a float's repr can hold: a delimiter among them quotes the fields
# that contain it, as csv.writer's minimal quoting does.
_REPR_CHARS = frozenset("0123456789.e+-infa")


def _csv_line(fields, delimiter: str) -> str:
    """One row as ``csv.writer`` formats it, line terminator included."""
    out = io.StringIO()
    csv.writer(out, delimiter=delimiter).writerow(fields)
    return out.getvalue()


def write_delimited(table: FlowTable, path,
                    spec: ColumnSpec | None = None) -> ColumnSpec:
    """Emit a table in the same delimited format the pipeline loader reads.

    The bytes are ``csv.writer``'s for rows of repr floats and the label, so
    a load round-trips bit-exactly. The header and each label are formatted
    by ``csv.writer`` itself, once; the rows are joined :data:`WRITE_ROWS`
    at a time into one string, quoting a float only when the delimiter
    occurs in its repr. The file is written atomically: a failed write
    leaves the previous file, or none.
    """
    if spec is None:
        spec = default_column_spec(table.width)
    delim = spec.delimiter
    header = _csv_line([*spec.feature_columns, spec.label_column], delim)
    lead = delim if table.width else ""
    tails = [lead + _csv_line([name], delim) for name in SUB_ATTACKS]
    if delim in _REPR_CHARS:
        def fmt(value):
            text = repr(value)
            return f'"{text}"' if delim in text else text
    else:
        fmt = repr

    def blocks():
        yield header.encode("utf-8")
        for lo in range(0, len(table), WRITE_ROWS):
            rows = table.X[lo:lo + WRITE_ROWS].tolist()
            codes = table.sub[lo:lo + WRITE_ROWS].tolist()
            yield "".join([delim.join(map(fmt, row)) + tails[code]
                           for row, code in zip(rows, codes)]).encode("utf-8")

    write_atomic(Path(path), blocks())
    return spec
