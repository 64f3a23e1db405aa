import csv
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftfed import atomic
from driftfed.errors import ConfigError
from driftfed.pipeline import (REMOVED_SUB_ATTACK, ROSTER, SUB_ATTACKS, ColumnSpec, FlowTable,
                               _load_columns, clean, load_records, records_by_class)
from driftfed.seeds import rng_for
from driftfed.synth import (WRITE_ROWS, FamilySpec, ScenarioSpec, default_drift_scenario,
                            generate, write_delimited)
from driftfed.timeline import temporal_segment

from conftest import full_disk, tiny_scenario


def _two_family_spec(distance: float, sigma: float = 1.0, rows: int = 400, seed: int = 7):
    dim = 6
    mean_a = np.zeros(dim) + 5.0
    mean_b = mean_a.copy()
    mean_b[0] += distance
    return ScenarioSpec(
        num_features=dim,
        families=(
            FamilySpec("Benign", ("Benign",), mean_a, sigma, rows),
            FamilySpec("DoS", ("TCP_IP-DoS-SYN",), mean_b, sigma, rows),
        ),
        seed=seed,
        clip=(-50.0, 50.0),
    )


def _midpoint_probe_accuracy(records):
    """Linear probe: project on the class-mean difference, threshold midway."""
    grouped = records_by_class(records)
    (name_a, rows_a), (name_b, rows_b) = sorted(grouped.items())
    xa = records.X[rows_a]
    xb = records.X[rows_b]
    direction = xb.mean(axis=0) - xa.mean(axis=0)
    threshold = (xa.mean(axis=0) + xb.mean(axis=0)) @ direction / 2.0
    correct = np.sum(xa @ direction < threshold) + np.sum(xb @ direction >= threshold)
    return correct / (len(rows_a) + len(rows_b))


def test_generate_deterministic():
    spec = tiny_scenario(seed=5)
    a = generate(spec)
    b = generate(spec)
    assert len(a) == len(b)
    assert a == b


def test_distant_families_linearly_separable():
    # mean distance 10 sigma: tail mass beyond the midpoint is ~ Phi(-5)
    records = generate(_two_family_spec(distance=10.0))
    assert _midpoint_probe_accuracy(records) > 0.99


def test_identical_means_indistinguishable():
    records = generate(_two_family_spec(distance=0.0, rows=2000))
    acc = _midpoint_probe_accuracy(records)
    sigma = 0.5 / np.sqrt(4000)
    assert abs(acc - 0.5) < 3 * sigma + 1e-9


def test_generated_features_finite_and_clipped():
    spec = tiny_scenario(seed=3)
    records = generate(spec)
    matrix = records.X
    assert np.all(np.isfinite(matrix))
    assert matrix.min() >= spec.clip[0] and matrix.max() <= spec.clip[1]


def test_generated_family_means_close_to_spec():
    spec = _two_family_spec(distance=4.0, rows=4000)
    table = generate(spec)
    grouped = records_by_class(table)
    for family in spec.families:
        rows = table.X[grouped[family.sub_attacks[0]]]
        err = np.abs(rows.mean(axis=0) - family.mean).max()
        assert err < 5 * family.scale / np.sqrt(len(rows))


def test_generate_is_the_concatenated_block_draws():
    # each sub-attack block is drawn into its rows of one matrix; the table is
    # what concatenating the clipped blocks gives
    spec = tiny_scenario(seed=4, rows=30)
    lo, hi = spec.clip
    blocks, codes = [], []
    for fam in spec.families:
        for sub in fam.sub_attacks:
            rng = rng_for(spec.seed, "family", fam.category, "sub", sub)
            blocks.append(np.clip(rng.normal(fam.mean, fam.scale,
                                             size=(fam.rows_per_subattack, spec.num_features)),
                                  lo, hi))
            codes += [sub] * fam.rows_per_subattack
    records = generate(spec)
    assert records == FlowTable.of(np.concatenate(blocks), codes)
    assert records.X.flags.c_contiguous


def test_generated_data_survives_clean_unchanged():
    records = generate(tiny_scenario(seed=1))
    assert clean(records) == records


def test_default_scenario_roster():
    spec = default_drift_scenario(seed=0, rows_per_subattack=60)
    records = generate(spec)
    classes = set(records_by_class(records))
    assert REMOVED_SUB_ATTACK not in classes
    assert "Benign" in classes
    assert len(classes - {"Benign"}) == 17
    for subs in ROSTER.values():
        assert set(subs) <= classes


def test_default_scenario_covers_exactly_the_roster():
    spec = default_drift_scenario(seed=0, rows_per_subattack=10)
    assert {fam.category: fam.sub_attacks for fam in spec.families} == ROSTER
    assert [fam.category for fam in spec.families] == list(ROSTER)


def test_default_scenario_segments_evenly():
    records = generate(default_drift_scenario(seed=0, rows_per_subattack=60))
    for cls, rows in records_by_class(records).items():
        sizes = [len(s) for s in temporal_segment(rows, 6)]
        assert max(sizes) - min(sizes) <= 1


def test_default_scenario_mqtt_ddos_farthest():
    spec = default_drift_scenario(seed=0)
    means = {f.category: f.mean for f in spec.families}
    pairs = {}
    names = [f.category for f in spec.families if f.category != "Benign"]
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            pairs[(a, b)] = np.linalg.norm(means[a] - means[b])
    widest = max(pairs, key=pairs.get)
    assert set(widest) == {"MQTT", "DDoS"}


def test_scenario_validation_errors():
    # a spec checks itself when built, so generate never sees a bad one
    fams = tiny_scenario().families
    for build, match in [
        (lambda: ScenarioSpec(num_features=0, families=fams, seed=0), "num_features"),
        (lambda: ScenarioSpec(num_features=8, families=(), seed=0), "at least one family"),
        (lambda: ScenarioSpec(num_features=8, families=fams, clip=(1.0, 1.0)), "clip"),
        (lambda: ScenarioSpec(num_features=9, families=fams), "mean length"),
        (lambda: FamilySpec("Benign", ("Benign",), np.zeros(8), 1.0, 0),
         "family 'Benign': rows_per_subattack: must be an integer in [1, inf], got 0"),
        (lambda: FamilySpec("Benign", ("Benign",), np.zeros(3), 1.0, 2.5),
         "family 'Benign': rows_per_subattack: must be an integer, got 2.5"),
        (lambda: FamilySpec("Benign", ("Benign",), np.zeros(8), 0.0, 5),
         "family 'Benign': scale: must be a number in (0, inf), got 0.0"),
        # generate would draw rows of it that clean drops, leaving no family to name
        (lambda: FamilySpec("Recon", ("Recon-VulScan",), np.array([0.0, np.nan]), 1.0, 4),
         "family 'Recon': mean must be finite"),
        (lambda: FamilySpec("Recon", ("Recon-VulScan",), np.array([-np.inf, 0.0]), 1.0, 4),
         "family 'Recon': mean must be finite"),
        (lambda: FamilySpec("Worm", ("Worm-X",), np.zeros(8), 1.0, 5), "unknown category"),
        (lambda: FamilySpec("DoS", ("DoS-flood",), np.zeros(8), 1.0, 5), "DoS-flood"),
        (lambda: FamilySpec("DoS", ("TCP_IP-DDoS-SYN",), np.zeros(8), 1.0, 5),
         "TCP_IP-DDoS-SYN"),
        (lambda: FamilySpec("DoS", (), np.zeros(8), 1.0, 5), "no sub-attacks"),
        (lambda: ScenarioSpec(num_features=8, families=(fams[1], fams[1]), seed=0),
         f"duplicate family '{fams[1].category}'"),
        (lambda: FamilySpec("Benign", ("Benign", "Benign"), np.zeros(8), 1.0, 2),
         "family 'Benign': sub-attack 'Benign' is listed twice"),
    ]:
        with pytest.raises(ConfigError, match=re.escape(match)):
            build()


def test_write_and_load_round_trip(tmp_path):
    records = generate(tiny_scenario(seed=2, rows=20))
    path = tmp_path / "flows.csv"
    colspec = write_delimited(records, path)
    loaded = load_records(path, colspec)
    assert len(loaded) == len(records)
    assert loaded.labels == records.labels
    assert np.array_equal(loaded.X, records.X)
    assert loaded == records


def test_generate_lays_out_blocks_in_family_then_roster_order():
    spec = tiny_scenario(seed=4, rows=3)
    table = generate(spec)
    expected = [sub for fam in spec.families for sub in fam.sub_attacks
                for _ in range(fam.rows_per_subattack)]
    assert table.labels == expected
    # each sub-attack is one contiguous block, its rows in draw (time) order
    grouped = records_by_class(table)
    start = 0
    for fam in spec.families:
        for sub in fam.sub_attacks:
            n = fam.rows_per_subattack
            assert grouped[sub].tolist() == list(range(start, start + n))
            start += n


def test_write_delimited_bytes_are_repr_floats_through_csv(tmp_path):
    # the file format: csv.writer rows of repr(float) features and the label,
    # as the loader and earlier datasets expect, byte for byte
    table = generate(tiny_scenario(seed=6, rows=5))
    path = tmp_path / "flows.csv"
    spec = write_delimited(table, path)
    expected = tmp_path / "expected.csv"
    with expected.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*spec.feature_columns, spec.label_column])
        for i in range(len(table)):
            writer.writerow([*(repr(float(v)) for v in table.X[i]), table.labels[i]])
    assert path.read_bytes() == expected.read_bytes()


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                  np.nan, np.inf, -np.inf, 0.1, -1.5e-5, 1e16, 123456789.125]

# Delimiters that occur in no field, and ones that occur in a float's repr
# ("-", ".", "e", "1", "n", "+", "i", "f", "a") or in labels ("-", "_", "D"):
# csv.writer quotes the fields that hold them
WRITE_DELIMITERS = [",", ";", "\t", "|", " ", "-", "_", ".", "e", "1", "n", "D", "+", "i",
                    "f", "a"]


@st.composite
def written_tables(draw):
    n = draw(st.integers(0, 2 * WRITE_ROWS + 1))
    width = draw(st.integers(0, 4))
    # a drawn NaN may carry a sign or payload, which repr does not keep
    floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False))
    values = draw(st.lists(floats, min_size=n * width, max_size=n * width))
    labels = draw(st.lists(st.sampled_from(SUB_ATTACKS), min_size=n, max_size=n))
    table = FlowTable.of(np.array(values, dtype=np.float64).reshape(n, width), labels)
    delimiter = draw(st.sampled_from(WRITE_DELIMITERS))
    return table, ColumnSpec(tuple(f"c{i}" for i in range(width)), "Attack", delimiter)


@settings(max_examples=400, deadline=None)
@given(case=written_tables())
def test_write_delimited_bytes_are_csv_writer_rows_for_any_delimiter(case, tmp_path_factory):
    table, spec = case
    path = tmp_path_factory.mktemp("written") / "flows.csv"
    write_delimited(table, path, spec)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected, delimiter=spec.delimiter)
    writer.writerow([*spec.feature_columns, spec.label_column])
    for values, label in zip(table.X.tolist(), table.labels):
        writer.writerow([*map(repr, values), label])
    assert path.read_bytes() == expected.getvalue().encode("utf-8")
    assert load_records(path, spec) == table
    fast = _load_columns(path, spec)
    assert fast is None or fast == table


@pytest.mark.parametrize("room", [0, 100, 5000])
def test_write_delimited_failing_partway_keeps_the_previous_file(tmp_path, monkeypatch, room):
    path = tmp_path / "flows.csv"
    write_delimited(generate(tiny_scenario(seed=1, rows=2)), path)
    before = path.read_bytes()
    monkeypatch.setattr(atomic, "open", full_disk(room), raising=False)
    with pytest.raises(OSError, match="No space left"):
        write_delimited(generate(tiny_scenario(seed=2, rows=20)), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["flows.csv"]


@pytest.mark.parametrize("rows", [0, -3, 2.5, True])
def test_default_scenario_names_the_rows_it_was_given(rows):
    message = f"^rows_per_subattack: must be an integer.*got {rows!r}$"
    with pytest.raises(ConfigError, match=message):
        default_drift_scenario(1, rows_per_subattack=rows)
