"""Encoded dataset containers shared by the pipeline and the model engine.

:class:`LabeledData` holds its rows' features; :class:`RowShard` names rows
of a feature matrix that other shards share, and is what a run's client
training shards are until ``nn.train_local`` gathers each batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, LabelError


@dataclass(frozen=True)
class LabeledData:
    """Feature matrix plus integer class labels.

    ``X`` has one row per sample; ``y`` holds class indices aligned with it.
    A ``y`` of any other dtype raises :class:`LabelError` rather than being
    truncated to classes.
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.X.ndim != 2:
            raise DataError("X must be 2-D")
        if self.y.shape != (self.X.shape[0],):
            raise DataError("y must have one entry per row of X")
        if not np.issubdtype(self.y.dtype, np.integer):
            raise LabelError(f"y must hold integer class indices, got dtype {self.y.dtype}")

    def __len__(self) -> int:
        return self.X.shape[0]

    @staticmethod
    def concat(parts: list["LabeledData"]) -> "LabeledData":
        parts = [p for p in parts if len(p) > 0]
        if not parts:
            raise DataError("nothing to concatenate")
        return LabeledData(
            np.concatenate([p.X for p in parts], axis=0),
            np.concatenate([p.y for p in parts], axis=0),
        )


@dataclass(frozen=True)
class RowShard:
    """Some rows of a feature matrix, with their class indices.

    ``X`` is the whole (N, F) matrix, ``rows`` the shard's (n,) row indices
    into it and ``y`` their class indices, aligned with ``rows``. Shards of
    one table share its ``X``, so a shard holds no features of its own.
    Row indices outside ``X`` raise :class:`DataError`, and a ``y`` that is
    not integer raises :class:`LabelError`, as in :class:`LabeledData`.
    """

    X: np.ndarray
    rows: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.X.ndim != 2:
            raise DataError("X must be 2-D")
        rows = np.asarray(self.rows)
        if rows.ndim != 1 or (rows.size and not np.issubdtype(rows.dtype, np.integer)):
            raise DataError("rows must be a 1-D array of row indices")
        if rows.size and not 0 <= rows.min() <= rows.max() < len(self.X):
            raise DataError(f"row indices must lie in [0, {len(self.X)})")
        if self.y.shape != rows.shape:
            raise DataError("y must have one entry per row index")
        if not np.issubdtype(self.y.dtype, np.integer):
            raise LabelError(f"y must hold integer class indices, got dtype {self.y.dtype}")
        object.__setattr__(self, "rows", rows.astype(np.intp, copy=False))

    def __len__(self) -> int:
        return len(self.rows)

    @staticmethod
    def of(data: LabeledData) -> "RowShard":
        """All rows of ``data``'s own matrix."""
        return RowShard(data.X, np.arange(len(data)), data.y)
