import errno

import numpy as np
import pytest

from driftfed.pipeline import ROSTER, FlowTable
from driftfed.synth import FamilySpec, ScenarioSpec


def make_records(sub_attack: str, n: int, dim: int = 4, seed: int = 0) -> FlowTable:
    """Cheap one-class table with sequential order indices."""
    rng = np.random.default_rng(seed)
    return FlowTable.of(rng.uniform(0, 1, size=(n, dim)), [sub_attack] * n)


def join(*tables: FlowTable) -> FlowTable:
    """The rows of several tables, one after the other, orders kept."""
    return FlowTable(np.concatenate([t.X for t in tables]),
                     np.concatenate([t.sub for t in tables]),
                     np.concatenate([t.order for t in tables]))


def tiny_scenario(seed: int = 0, rows: int = 240, num_features: int = 8) -> ScenarioSpec:
    """Full-roster scenario small enough for fast composition tests."""
    base = np.full(num_features, 5.0)
    offsets = {"MQTT": +2.0, "DDoS": -2.0, "DoS": +1.0, "Recon": -1.0, "Spoofing": +3.0}
    families = [FamilySpec("Benign", "Benign", ROSTER["Benign"], base.copy(), 0.7, 4 * rows)]
    for cat, delta in offsets.items():
        mean = base.copy()
        mean[: num_features // 2] += delta
        families.append(FamilySpec(cat, cat, ROSTER[cat], mean, 0.7, rows))
    return ScenarioSpec(num_features=num_features, families=tuple(families), seed=seed)


class FillingFile:
    """A binary file that takes ``room`` bytes, then fails like a full disk."""

    def __init__(self, path, mode, room):
        self.fh = open(path, mode)
        self.room = room

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        data = bytes(data)
        self.fh.write(data[:self.room])
        if len(data) > self.room:
            self.room = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(data)
        return len(data)


def full_disk(room):
    """An ``open`` whose files fail after ``room`` bytes, to patch into ``driftfed.atomic``."""
    return lambda path, mode: FillingFile(path, mode, room)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
