"""The labeled-rows type shared by the pipeline, the model engine and evaluation.

A :class:`RowShard` names rows of a feature matrix, with their class
indices. A run's client training shards, validation sets and test sets all
index its one scaled table, so none of them holds features of its own: the
model engine gathers a training batch, and ``run_timeline`` and
``cross_period_eval`` a validation or test set, when they read it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, LabelError


@dataclass(frozen=True)
class RowShard:
    """Some rows of a feature matrix, with their class indices.

    ``X`` is the whole (N, F) matrix, ``rows`` the shard's (n,) row indices
    into it and ``y`` their class indices, aligned with ``rows``. Shards of
    one table share its ``X``, so a shard holds no features of its own.
    A matrix that is not 2-D, row indices outside it and labels not aligned
    with ``rows`` raise :class:`DataError`; a ``y`` that is not integer
    raises :class:`LabelError` rather than being truncated to classes.
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

