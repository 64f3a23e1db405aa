import errno

import numpy as np
import pytest

from driftfed.dataset import RowShard
from driftfed.pipeline import ROSTER, FlowTable
from driftfed.synth import FamilySpec, ScenarioSpec


def make_records(sub_attack: str, n: int, dim: int = 4, seed: int = 0) -> FlowTable:
    """Cheap one-class table."""
    rng = np.random.default_rng(seed)
    return FlowTable.of(rng.uniform(0, 1, size=(n, dim)), [sub_attack] * n)


def join(*tables: FlowTable) -> FlowTable:
    """The rows of several tables, one after the other."""
    return FlowTable(np.concatenate([t.X for t in tables]),
                     np.concatenate([t.sub for t in tables]))


def whole(X, y) -> RowShard:
    """All rows of ``X``, in order, as one shard."""
    return RowShard(X, np.arange(len(X)), y)


def rows_of_one_table(gen, parts) -> list[RowShard]:
    """Each ``(X, y)`` of ``parts`` as a shard of one matrix that holds their rows
    in a shuffled order, between rows no shard reads, as a run's shards share its
    scaled table."""
    spare = gen.normal(size=(7, parts[0][0].shape[1]))
    X = np.concatenate([spare] + [x for x, _ in parts])
    place = gen.permutation(len(X))  # X's row k goes to row place[k]
    table = np.empty_like(X)
    table[place] = X
    starts = np.cumsum([len(spare)] + [len(x) for x, _ in parts])
    return [RowShard(table, place[lo:lo + len(x)], y) for lo, (x, y) in zip(starts, parts)]


def tiny_scenario(seed: int = 0, rows: int = 240, num_features: int = 8) -> ScenarioSpec:
    """Full-roster scenario small enough for fast composition tests."""
    base = np.full(num_features, 5.0)
    offsets = {"MQTT": +2.0, "DDoS": -2.0, "DoS": +1.0, "Recon": -1.0, "Spoofing": +3.0}
    families = [FamilySpec("Benign", ROSTER["Benign"], base.copy(), 0.7, 4 * rows)]
    for cat, delta in offsets.items():
        mean = base.copy()
        mean[: num_features // 2] += delta
        families.append(FamilySpec(cat, ROSTER[cat], mean, 0.7, rows))
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
