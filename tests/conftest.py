import numpy as np
import pytest

from driftfed.pipeline import ROSTER, FlowRecord
from driftfed.synth import FamilySpec, ScenarioSpec


def make_records(sub_attack: str, n: int, dim: int = 4, seed: int = 0):
    """Cheap per-class records with sequential order indices."""
    rng = np.random.default_rng(seed)
    rows = rng.uniform(0, 1, size=(n, dim))
    return [FlowRecord.make(rows[i], sub_attack, i) for i in range(n)]


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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
