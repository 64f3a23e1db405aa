"""Encoded dataset container shared by the pipeline and the model engine."""

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
