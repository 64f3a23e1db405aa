import numpy as np
import pytest

from driftfed.errors import CodecError, ConfigError, DataError, LoadError
from driftfed.pipeline import (CATEGORIES, ROSTER, ColumnSpec, FlowRecord, LabelCodec,
                               REMOVED_SUB_ATTACK, apply_scaler, category_of, clean,
                               encode_labels, fit_scaler, load_records,
                               records_by_class, stratified_split)

from conftest import make_records


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
    assert [r.order_index for r in grouped["Benign"]] == [0, 1]
    assert grouped["TCP_IP-DoS-SYN"][0].order_index == 0
    assert np.array_equal(records[1].features, [4.0, 5.0, 6.0])


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


def test_load_records_missing_file():
    with pytest.raises(LoadError):
        load_records("/nonexistent/flows.csv", SPEC3)


def test_clean_drops_nonfinite_and_removed_class():
    good = make_records("Benign", 3)
    bad = FlowRecord.make(np.array([np.nan, 0, 0, 0]), "Benign", 3)
    removed = make_records(REMOVED_SUB_ATTACK, 2)
    out = clean(good + [bad] + removed)
    assert [r.sub_attack for r in out] == ["Benign"] * 3
    assert [r.order_index for r in out] == [0, 1, 2]


def test_clean_only_removed_class_gives_empty():
    assert clean(make_records(REMOVED_SUB_ATTACK, 5)) == []


def test_clean_idempotent_and_densifies():
    records = make_records("Benign", 6)
    records[2] = FlowRecord.make(np.array([np.inf, 0, 0, 0]), "Benign", 2)
    once = clean(records)
    assert [r.order_index for r in once] == [0, 1, 2, 3, 4]
    assert clean(once) == once


def test_stratified_split_counts_and_rounding():
    ten = make_records("Benign", 10)
    train, test = stratified_split(ten, 0.8, seed=0)
    assert (len(train), len(test)) == (8, 2)

    five = make_records("ARP_Spoofing", 5)
    train, test = stratified_split(five, 0.8, seed=0)
    assert (len(train), len(test)) == (4, 1)


def test_stratified_split_per_class_proportions():
    records = (make_records("Benign", 100) + make_records("TCP_IP-DoS-SYN", 57)
               + make_records("ARP_Spoofing", 23))
    train, _ = stratified_split(records, 0.8, seed=3)
    counts = {cls: len(rows) for cls, rows in records_by_class(train).items()}
    assert counts == {"Benign": 80, "TCP_IP-DoS-SYN": 46, "ARP_Spoofing": 18}


def test_stratified_split_preserves_chronology_and_reconciles():
    records = make_records("Benign", 40)
    train, test = stratified_split(records, 0.75, seed=9)
    assert [r.order_index for r in train] == sorted(r.order_index for r in train)
    assert [r.order_index for r in test] == sorted(r.order_index for r in test)
    combined = sorted(train + test, key=lambda r: r.order_index)
    assert [r.order_index for r in combined] == list(range(40))


def test_stratified_split_tiny_class_warns_all_train():
    with pytest.warns(UserWarning, match="ARP_Spoofing"):
        train, test = stratified_split(make_records("ARP_Spoofing", 1), 0.8, seed=0)
    assert len(train) == 1 and len(test) == 0


def test_stratified_split_deterministic():
    records = make_records("Benign", 30)
    a_train, _ = stratified_split(records, 0.8, seed=4)
    b_train, _ = stratified_split(records, 0.8, seed=4)
    assert [r.order_index for r in a_train] == [r.order_index for r in b_train]
    c_train, _ = stratified_split(records, 0.8, seed=5)
    assert [r.order_index for r in a_train] != [r.order_index for r in c_train]


def test_stratified_split_bad_fraction():
    with pytest.raises(ConfigError):
        stratified_split(make_records("Benign", 4), 1.0, seed=0)


def _column_records(column):
    return [FlowRecord.make(np.array([v]), "Benign", i) for i, v in enumerate(column)]


def test_scaler_formula_by_hand():
    stats = fit_scaler(_column_records([2.0, 4.0, 6.0]))
    out = apply_scaler(stats, _column_records([2.0, 4.0, 6.0]))
    assert [r.features[0] for r in out] == [0.0, 0.5, 1.0]


def test_scaler_constant_column_maps_to_zero():
    stats = fit_scaler(_column_records([5.0, 5.0, 5.0]))
    out = apply_scaler(stats, _column_records([5.0, 7.0]))
    assert [r.features[0] for r in out] == [0.0, 0.0]


def test_scaler_clamps_out_of_range_test_rows():
    stats = fit_scaler(_column_records([2.0, 6.0]))
    out = apply_scaler(stats, _column_records([8.0, 1.0]))
    assert [r.features[0] for r in out] == [1.0, 0.0]


def test_scaler_requires_training_rows():
    with pytest.raises(DataError):
        fit_scaler([])


def test_encode_labels_binary_and_sixclass():
    binary = LabelCodec.binary()
    six = LabelCodec.six_class()
    dos = FlowRecord.make(np.zeros(2), "TCP_IP-DoS-SYN", 0)
    benign = FlowRecord.make(np.zeros(2), "Benign", 0)
    recon = FlowRecord.make(np.zeros(2), "Recon-Ping_Sweep", 0)
    assert encode_labels(binary, [dos, benign]).y.tolist() == [1, 0]
    assert encode_labels(six, [recon]).y.tolist() == [CATEGORIES.index("Recon")]
    assert CATEGORIES.index("Recon") == 4


def test_encode_labels_global_mapping_across_subsets():
    six = LabelCodec.six_class()
    part_a = make_records("TCP_IP-DDoS-SYN", 3)
    part_b = make_records("TCP_IP-DDoS-SYN", 2, seed=9)
    ya = encode_labels(six, part_a).y
    yb = encode_labels(six, part_b).y
    assert set(ya.tolist()) == set(yb.tolist()) == {3}


def test_encode_labels_empty():
    data = encode_labels(LabelCodec.binary(), [], input_dim=7)
    assert data.X.shape == (0, 7) and len(data) == 0
