import re

import numpy as np
import pytest

from driftfed import pipeline
from driftfed.errors import CodecError, ConfigError, DataError, LoadError
from driftfed.pipeline import (CATEGORIES, CODECS, NO_ROWS, ROSTER, SUB_ATTACKS, ColumnSpec,
                               FlowTable, REMOVED_SUB_ATTACK, apply_scaler, category_of, clean,
                               encode_labels, fit_scaler, load_records, records_by_class,
                               stratified_split)

from conftest import join, make_records


@pytest.mark.parametrize("label,expected", [
    ("Benign", "Benign"),
    ("MQTT-Malformed_Data", "MQTT"),
    ("MQTT-DDoS-Connect_Flood", "MQTT"),
    ("TCP_IP-DoS-SYN", "DoS"),
    ("TCP_IP-DDoS-SYN", "DDoS"),
    ("Recon-Ping_Sweep", "Recon"),
    ("ARP_Spoofing", "Spoofing"),
])
def test_category_prefix_mapping(label, expected):
    assert category_of(label) == expected


def test_category_unknown_label():
    with pytest.raises(CodecError, match="Mirai"):
        category_of("Mirai-UDP_Flood")


def test_categories_are_the_roster_in_class_index_order():
    assert CATEGORIES == tuple(ROSTER)
    assert CATEGORIES[0] == "Benign"
    for category, subs in ROSTER.items():
        assert all(category_of(sub) == category for sub in subs)
    assert category_of(REMOVED_SUB_ATTACK) == "MQTT"


def _write(tmp_path, text, name="flows.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


SPEC3 = ColumnSpec(("a", "b", "c"), "Attack")


def test_load_records_counts_order_within_class(tmp_path):
    path = _write(tmp_path,
                  "a,b,c,Attack\n"
                  "1,2,3,Benign\n"
                  "4,5,6,TCP_IP-DoS-SYN\n"
                  "7,8,9,Benign\n")
    records = load_records(path, SPEC3)
    assert len(records) == 3
    grouped = records_by_class(records)
    assert grouped["Benign"].tolist() == [0, 2]
    assert grouped["TCP_IP-DoS-SYN"].tolist() == [1]
    assert np.array_equal(records.X[1], [4.0, 5.0, 6.0])


def test_load_records_missing_column_named(tmp_path):
    path = _write(tmp_path, "a,b,Attack\n1,2,Benign\n")
    with pytest.raises(LoadError, match="'c'"):
        load_records(path, SPEC3)


def test_load_records_bad_number_names_row_and_column(tmp_path):
    path = _write(tmp_path, "a,b,c,Attack\n1,2,3,Benign\n1,oops,3,Benign\n")
    with pytest.raises(LoadError, match=r"row 3.*'b'"):
        load_records(path, SPEC3)


def test_load_records_unknown_label_listed(tmp_path):
    path = _write(tmp_path, "a,b,c,Attack\n1,2,3,Slowloris\n")
    with pytest.raises(LoadError, match="Slowloris"):
        load_records(path, SPEC3)


def test_load_records_rejects_off_roster_sub_attack_by_name(tmp_path):
    # a known family prefix is not enough: labels must be roster names
    path = _write(tmp_path,
                  "a,b,c,Attack\n"
                  "1,2,3,Benign\n"
                  "4,5,6,MQTT-Malformed_Data\n"
                  "7,8,9,MQTT-Foo_Flood\n"
                  "1,2,3,MQTT-Foo_Flood\n")
    with pytest.raises(LoadError, match=r"row 4: .*'MQTT-Foo_Flood'"):
        load_records(path, SPEC3)


def test_load_records_missing_file(tmp_path):
    # a missing path and a directory both fail by name, not with a raw OSError
    for path in (tmp_path / "absent.csv", tmp_path):
        with pytest.raises(LoadError, match=re.escape(str(path))):
            load_records(path, SPEC3)


def test_clean_drops_nonfinite_and_removed_class():
    good = make_records("Benign", 3)
    bad = FlowTable.of([[np.nan, 0, 0, 0]], ["Benign"])
    removed = make_records(REMOVED_SUB_ATTACK, 2)
    out = clean(join(good, bad, removed))
    assert out == good


def test_clean_only_removed_class_gives_empty():
    out = clean(make_records(REMOVED_SUB_ATTACK, 5))
    assert len(out) == 0 and out.X.shape == (0, 4)


def test_clean_idempotent_and_densifies():
    records = make_records("Benign", 6)
    X = records.X.copy()
    X[2, 0] = np.inf
    once = clean(FlowTable(X, records.sub))
    assert once == records[[0, 1, 3, 4, 5]]
    assert clean(once) is once


def test_clean_checks_rows_on_both_sides_of_a_chunk_boundary():
    # non-finite rows at the first and last row of the table and of its first chunk
    n = pipeline.SCALER_ROWS
    records = make_records("Benign", n + 3)
    X = records.X.copy()
    bad = [0, n - 2, n - 1, n, n + 2]
    for row, value in zip(bad, [np.nan, np.inf, -np.inf, np.nan, np.inf]):
        X[row, row % X.shape[1]] = value
    table = FlowTable(X, records.sub)
    out = clean(table)
    assert out == table[np.isfinite(X).all(axis=1)]
    assert out == records[[k for k in range(n + 3) if k not in bad]]


def test_stratified_split_counts_and_rounding():
    ten = make_records("Benign", 10)
    train, test = stratified_split(ten, 0.8, seed=0)
    assert (len(train), len(test)) == (8, 2)

    five = make_records("ARP_Spoofing", 5)
    train, test = stratified_split(five, 0.8, seed=0)
    assert (len(train), len(test)) == (4, 1)


def test_stratified_split_per_class_proportions():
    records = (make_records("Benign", 100), make_records("TCP_IP-DoS-SYN", 57),
               make_records("ARP_Spoofing", 23))
    table = join(*records)
    train, _ = stratified_split(table, 0.8, seed=3)
    counts = {cls: len(rows) for cls, rows in records_by_class(table, train).items()}
    assert counts == {"Benign": 80, "TCP_IP-DoS-SYN": 46, "ARP_Spoofing": 18}


def test_stratified_split_preserves_chronology_and_reconciles():
    # the one feature is the row's index, so each half shows which rows it took
    records = _column_records(np.arange(40.0))
    train, test = stratified_split(records, 0.75, seed=9)
    assert train.dtype == test.dtype == np.intp
    taken = records.X[train, 0].tolist(), records.X[test, 0].tolist()
    assert all(rows == sorted(rows) for rows in taken)
    assert sorted(taken[0] + taken[1]) == list(range(40))


def test_stratified_split_tiny_class_warns_all_train():
    with pytest.warns(UserWarning, match="ARP_Spoofing"):
        train, test = stratified_split(make_records("ARP_Spoofing", 1), 0.8, seed=0)
    assert len(train) == 1 and len(test) == 0


def test_stratified_split_deterministic():
    records = make_records("Benign", 30)
    a_train, _ = stratified_split(records, 0.8, seed=4)
    b_train, _ = stratified_split(records, 0.8, seed=4)
    assert np.array_equal(a_train, b_train)
    c_train, _ = stratified_split(records, 0.8, seed=5)
    assert not np.array_equal(a_train, c_train)


def test_stratified_split_classes_in_name_order_rows_in_time_order():
    # classes arrive interleaved; both halves come back grouped by class
    # name, each class a subsequence of its rows (the feature is the row index)
    table = FlowTable.of(np.arange(8.0)[:, None],
                         ["TCP_IP-DoS-SYN", "Benign", "TCP_IP-DoS-SYN", "Benign",
                          "Benign", "TCP_IP-DoS-SYN", "Benign", "TCP_IP-DoS-SYN"])
    train, test = stratified_split(table, 0.5, seed=0)
    for half in (table[train], table[test]):
        names = half.labels
        assert names == sorted(names)
        for code in set(half.sub.tolist()):
            rows = half.X[half.sub == code, 0].tolist()
            assert rows == sorted(rows)
            assert set(rows) <= set(np.flatnonzero(table.sub == code).tolist())


def test_stratified_split_bad_fraction():
    with pytest.raises(ConfigError):
        stratified_split(make_records("Benign", 4), 1.0, seed=0)


def _column_records(column):
    return FlowTable.of(np.array(column)[:, None], ["Benign"] * len(column))


def test_scaler_formula_by_hand():
    stats = fit_scaler(_column_records([2.0, 4.0, 6.0]))
    out = apply_scaler(stats, _column_records([2.0, 4.0, 6.0]))
    assert out.X[:, 0].tolist() == [0.0, 0.5, 1.0]


def test_scaler_constant_column_maps_to_zero():
    stats = fit_scaler(_column_records([5.0, 5.0, 5.0]))
    out = apply_scaler(stats, _column_records([5.0, 7.0]))
    assert out.X[:, 0].tolist() == [0.0, 0.0]


def test_scaler_clamps_out_of_range_test_rows():
    stats = fit_scaler(_column_records([2.0, 6.0]))
    out = apply_scaler(stats, _column_records([8.0, 1.0]))
    assert out.X[:, 0].tolist() == [1.0, 0.0]


def test_apply_scaler_is_byte_equal_to_the_expression(rng):
    # a constant column, and rows outside the fitted range on both sides
    train = FlowTable.of(np.column_stack([rng.normal(size=50), np.full(50, 3.0),
                                          rng.uniform(-1e3, 1e3, size=50)]), ["Benign"] * 50)
    table = FlowTable.of(np.vstack([train.X, rng.normal(scale=1e4, size=(40, 3))]),
                         ["Benign"] * 90)
    stats = fit_scaler(train)
    span = stats.maxs - stats.mins
    expected = np.clip((table.X - stats.mins) / np.where(span > 0, span, 1.0), 0.0, 1.0)
    expected[:, span == 0] = 0.0
    assert apply_scaler(stats, table).X.tobytes() == expected.tobytes()
    # in place: the table's own matrix is the output
    own = FlowTable(table.X.copy(), table.sub)
    scaled = apply_scaler(stats, own, out=own.X)
    assert scaled.X is own.X and own.X.tobytes() == expected.tobytes()


@pytest.mark.parametrize("chunk", [1, 3, 7, None], ids=lambda c: f"chunk-{c or 'default'}")
def test_fit_scaler_over_rows_is_the_reduction_over_the_gathered_rows(rng, monkeypatch, chunk):
    # The fit reads the rows a chunk at a time. Min and max are exact, but a
    # tied zero takes its sign from the order of the reduction: column 1 holds
    # only 0.0 and -0.0, so its minimum and maximum are both tied zeros, and
    # column 3's maximum is a tied zero among -1.0 rows. Column 2 is constant.
    if chunk is not None:
        monkeypatch.setattr(pipeline, "SCALER_ROWS", chunk)
    n = 40
    zeros = rng.choice([0.0, -0.0], size=n)
    table = FlowTable.of(np.column_stack([rng.normal(size=n), zeros, np.full(n, 2.5),
                                          np.where(rng.random(n) < 0.5, zeros, -1.0)]),
                         ["Benign"] * n)
    for trial in range(20):
        rows = rng.permutation(n)[:rng.integers(1, n + 1)]
        stats = fit_scaler(table, rows)
        assert stats.mins.tobytes() == table.X[rows].min(axis=0).tobytes(), trial
        assert stats.maxs.tobytes() == table.X[rows].max(axis=0).tobytes(), trial
    assert fit_scaler(table).mins.tobytes() == table.X.min(axis=0).tobytes()
    assert fit_scaler(table).maxs.tobytes() == table.X.max(axis=0).tobytes()


def test_scaler_requires_training_rows():
    with pytest.raises(DataError):
        fit_scaler(make_records("Benign", 0))
    with pytest.raises(DataError):
        fit_scaler(make_records("Benign", 3), NO_ROWS)


def test_encode_labels_binary_and_sixclass():
    binary = CODECS["binary"]
    six = CODECS["sixclass"]
    table = FlowTable.of(np.zeros((3, 2)), ["TCP_IP-DoS-SYN", "Benign", "Recon-Ping_Sweep"])
    assert encode_labels(binary, table, [0, 1]).y.tolist() == [1, 0]
    assert encode_labels(six, table, [2]).y.tolist() == [CATEGORIES.index("Recon")]
    assert CATEGORIES.index("Recon") == 4
    # an encoded set names its rows of the table without copying features
    shard = encode_labels(six, table, np.array([2, 0]))
    assert shard.X is table.X and shard.rows.tolist() == [2, 0]
    assert shard.y.tolist() == [CATEGORIES.index("Recon"), CATEGORIES.index("DoS")]


def test_codec_table_holds_each_task_lookup_once():
    # the class index per sub-attack code: the roster's 18 labels, then the removed one
    assert CODECS["binary"].lut.tolist() == [0] + [1] * 18
    assert CODECS["sixclass"].lut.tolist() == [0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3,
                                               4, 4, 4, 4, 5, 1]
    for task, codec in CODECS.items():
        assert codec.task == task and codec.lut.dtype == np.int64
        assert not codec.lut.flags.writeable
    assert CODECS["sixclass"].class_names == CATEGORIES


def test_encode_labels_lookup_covers_every_sub_attack():
    table = FlowTable.of(np.arange(len(SUB_ATTACKS), dtype=float)[:, None], SUB_ATTACKS)
    every = np.arange(len(table))
    binary = encode_labels(CODECS["binary"], table, every)
    six = encode_labels(CODECS["sixclass"], table, every)
    assert binary.y.tolist() == [int(category_of(s) != "Benign") for s in SUB_ATTACKS]
    assert six.y.tolist() == [CATEGORIES.index(category_of(s)) for s in SUB_ATTACKS]
    picked = encode_labels(CODECS["sixclass"], table, [5, 0, 5])
    assert picked.X[picked.rows, 0].tolist() == [5.0, 0.0, 5.0]
    assert picked.y.dtype == np.int64


def test_encode_labels_global_mapping_across_subsets():
    six = CODECS["sixclass"]
    part_a = make_records("TCP_IP-DDoS-SYN", 3)
    part_b = make_records("TCP_IP-DDoS-SYN", 2, seed=9)
    ya = encode_labels(six, part_a, np.arange(3)).y
    yb = encode_labels(six, part_b, np.arange(2)).y
    assert set(ya.tolist()) == set(yb.tolist()) == {3}


def test_encode_labels_empty():
    data = encode_labels(CODECS["binary"], make_records("Benign", 3, dim=7), NO_ROWS)
    assert data.X.shape == (3, 7) and len(data) == 0 and data.rows.shape == (0,)


# --- the table ------------------------------------------------------------------

def test_flow_table_normalises_and_checks_its_columns():
    table = FlowTable(np.asfortranarray(np.ones((3, 2), dtype=np.float32)),
                      np.array([0, 1, 0], dtype=np.int32))
    assert table.X.flags.c_contiguous and table.X.dtype == np.float64
    assert table.sub.dtype == np.intp and len(table) == 3 and table.width == 2
    assert len(FlowTable(np.empty((0, 2)), [])) == 0
    with pytest.raises(DataError):
        FlowTable(np.ones(3), [0, 0, 0])
    with pytest.raises(DataError):
        FlowTable(np.ones((3, 1)), [0, 0])
    with pytest.raises(DataError):
        FlowTable(np.ones((1, 1)), [len(SUB_ATTACKS)])
    with pytest.raises(CodecError, match="Slowloris"):
        FlowTable.of(np.ones((1, 1)), ["Slowloris"])


def test_flow_table_rows_and_bitwise_equality():
    table = make_records("Benign", 5)
    assert table[1:3] == FlowTable(table.X[1:3], table.sub[1:3])
    assert np.array_equal(table[[4, 0]].X, table.X[[4, 0]])
    assert table[np.arange(5) > 2] == table[3:]
    with pytest.raises(DataError):
        table[0]  # one row is not a table
    zeros = FlowTable.of([[0.0]], ["Benign"])
    assert zeros != FlowTable.of([[-0.0]], ["Benign"])
    assert FlowTable.of([[np.nan]], ["Benign"]) == FlowTable.of([[np.nan]], ["Benign"])


def test_records_by_class_sorts_names_and_order():
    table = FlowTable.of(np.zeros((5, 1)), ["TCP_IP-DoS-SYN", "Benign", "ARP_Spoofing",
                                            "Benign", "Benign"])
    grouped = records_by_class(table)
    assert list(grouped) == ["ARP_Spoofing", "Benign", "TCP_IP-DoS-SYN"]
    assert grouped["Benign"].tolist() == [1, 3, 4]
    assert records_by_class(make_records("Benign", 0)) == {}
    # a subset of the rows, in any order, comes back by class in table order
    subset = records_by_class(table, np.array([4, 2, 0, 1]))
    assert {cls: rows.tolist() for cls, rows in subset.items()} == {
        "ARP_Spoofing": [2], "Benign": [1, 4], "TCP_IP-DoS-SYN": [0]}
    assert list(subset) == ["ARP_Spoofing", "Benign", "TCP_IP-DoS-SYN"]
    assert records_by_class(table, NO_ROWS) == {}


@pytest.mark.parametrize("codes", [[0.5, 1.7], [1.0, 0.0], [True, False]])
def test_flow_table_rejects_non_integer_codes(codes):
    # a float or bool code would otherwise be truncated to a different label
    with pytest.raises(DataError, match=str(np.asarray(codes).dtype)):
        FlowTable(np.zeros((2, 3)), codes)
