"""CSV loading: the streaming C-parser path against the row scan.

``load_records`` reads plain text with ``np.loadtxt``, features and labels
together, ``LOAD_ROWS`` rows a call on one open handle, and falls back to a
row-by-row ``csv.reader`` scan whenever that path cannot vouch for giving
the same table. These tests pin both halves to the same answer: bit-exact
tables for everything ``write_delimited`` can produce, and the same
``LoadError`` (or the same table) for damaged files.
"""

import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftfed.errors import LoadError
from driftfed.pipeline import (LOAD_ROWS, SUB_ATTACKS, ColumnSpec, FlowTable, _load_columns,
                               _scan_rows, load_records)
from driftfed.synth import write_delimited

from conftest import make_records

SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
            np.nan, np.inf, -np.inf, 0.1, -1.5e-5, 123456789.125]

# ',' ';' and tab never occur in a float's repr or a label; '_' occurs in
# labels and '-' in labels and negative floats, so csv.writer quotes those
# fields and the loader has to unquote them
DELIMITERS = [",", ";", "\t", "_", "-"]


@st.composite
def delimited_tables(draw):
    """A random table, the spec it is written with, and the spec it is read with."""
    n = draw(st.integers(0, 12))
    width = draw(st.integers(1, 6))
    values = draw(st.lists(st.one_of(st.sampled_from(SPECIALS),
                                     st.floats(allow_nan=False, allow_subnormal=True)),
                           min_size=n * width, max_size=n * width))
    labels = draw(st.lists(st.sampled_from(SUB_ATTACKS), min_size=n, max_size=n))
    delimiter = draw(st.sampled_from(DELIMITERS))
    names = [f"c{i}" for i in range(width)]
    # read a permutation of a subset: the other columns are extra, unused ones
    cols = draw(st.permutations(range(width)))[:draw(st.integers(1, width))]
    table = FlowTable.of(np.array(values, dtype=np.float64).reshape(n, width), labels)
    written = ColumnSpec(tuple(names), "Attack", delimiter)
    read = ColumnSpec(tuple(names[c] for c in cols), "Attack", delimiter)
    expected = FlowTable(table.X[:, cols], table.sub)
    return table, written, read, expected


@settings(max_examples=150, deadline=None)
@given(case=delimited_tables())
def test_written_tables_load_back_bit_exact_on_both_paths(case, tmp_path_factory):
    table, written, read, expected = case
    path = tmp_path_factory.mktemp("roundtrip") / "flows.csv"
    write_delimited(table, path, written)
    fast = _load_columns(path, read)
    assert fast is not None, "the C-parser path declined a file write_delimited made"
    assert fast == expected
    assert _scan_rows(path, read) == expected
    assert load_records(path, read) == expected


def _outcome(load, path, spec):
    try:
        return load(path, spec)
    except LoadError as exc:
        return f"LoadError: {exc}"


@st.composite
def damaged_files(draw):
    table = make_records("Benign", 3, dim=3, seed=draw(st.integers(0, 5)))
    labels = draw(st.lists(st.sampled_from(SUB_ATTACKS), min_size=3, max_size=3))
    table = FlowTable.of(table.X * draw(st.sampled_from([1.0, -1e3, 1e-300])), labels)
    delimiter = draw(st.sampled_from([",", "\t", "-"]))
    return table, delimiter, draw(st.data())


@settings(max_examples=300, deadline=None)
@given(case=damaged_files())
def test_damaged_files_load_or_raise_load_error_alike(case, tmp_path_factory):
    table, delimiter, data = case
    path = tmp_path_factory.mktemp("damaged") / "flows.csv"
    spec = write_delimited(table, path, ColumnSpec(("a", "b", "c"), "Attack", delimiter))
    blob = bytearray(path.read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[:data.draw(st.integers(0, len(blob)), label="cut")]
    else:
        for _ in range(data.draw(st.integers(1, 4), label="flips")):
            at = data.draw(st.integers(0, len(blob) - 1), label="at")
            blob[at] = data.draw(st.sampled_from(
                [0x00, 0x09, 0x0A, 0x0D, 0x1C, 0x20, 0x22, 0x23, 0x2C, 0x2D, 0x2E, 0x30,
                 0x41, 0x5F, 0x65, 0x6E, 0x80, 0xA0, 0xC3, 0xFE, 0xFF]), label="byte")
    path.write_bytes(bytes(blob))

    scanned = _outcome(_scan_rows, path, spec)
    loaded = _outcome(load_records, path, spec)
    assert isinstance(scanned, (FlowTable, str))
    assert isinstance(loaded, (FlowTable, str))
    assert loaded == scanned


def _write(tmp_path, data: bytes):
    path = tmp_path / "flows.csv"
    path.write_bytes(data)
    return path


SPEC2 = ColumnSpec(("a", "b"), "Attack")


def test_undecodable_row_raises_load_error_naming_the_file(tmp_path):
    path = _write(tmp_path, b"a,b,Attack\n1,2,Benign\n1,\xff\xfe,Benign\n")
    with pytest.raises(LoadError, match="flows.csv.*not UTF-8"):
        load_records(path, SPEC2)


def test_row_scan_names_a_non_number_in_either_path(tmp_path):
    path = _write(tmp_path, b"a,b,Attack\n1,2,Benign\n1,1_0x,Benign\n")
    with pytest.raises(LoadError, match=r"row 3, column 'b': cannot parse '1_0x'"):
        load_records(path, SPEC2)


SPEC_B = ColumnSpec(("b",), "Attack")


def _declines(path, spec) -> bool:
    try:
        return _load_columns(path, spec) is None
    except (ValueError, csv.Error):
        return True


@pytest.mark.parametrize("body", [
    b"a,b,Attack\n1,2,Benign\n\n3,4,Benign\n",      # a blank line
    b"a,b,Attack\n1,2,Benign\n3,Benign\n",           # a short row
    b"a,b,Attack\n1,2, Benign\n",                     # a label with a space
    b"a,b,Attack\n1,2\x1c,Benign\n",                  # a separator byte numpy strips
    b"a,b,Attack\n1,2_0,Benign\n",                    # an underscore numpy rejects
    b'"a\nx",b,Attack\n1,2,Benign\n',                 # a header over two lines
    b'a,b,Attack\n1,"2,Benign\n3",4,Benign\n',         # a quoted field over two lines
])
def test_fast_path_defers_to_the_row_scan(tmp_path, body):
    path = _write(tmp_path, body)
    assert _declines(path, SPEC_B)
    assert _outcome(load_records, path, SPEC_B) == _outcome(_scan_rows, path, SPEC_B)


def test_bare_carriage_return_ends_a_row_on_both_paths(tmp_path):
    path = _write(tmp_path, b"a,b,Attack\n1,2,Benign\r3,4,Benign\r\n")
    assert load_records(path, SPEC2) == _scan_rows(path, SPEC2)
    assert load_records(path, SPEC2).X.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_underscored_number_loads_as_python_reads_it(tmp_path):
    # float() accepts digit separators and numpy does not: the row scan decides
    path = _write(tmp_path, b"a,b,Attack\n1_0,2,Benign\n")
    assert load_records(path, SPEC2).X.tolist() == [[10.0, 2.0]]


def test_header_only_file_gives_an_empty_table(tmp_path):
    table = load_records(_write(tmp_path, b"a,b,Attack\r\n"), SPEC2)
    assert len(table) == 0 and table.X.shape == (0, 2)


@pytest.mark.parametrize("delimiter", DELIMITERS)
def test_tables_over_several_blocks_load_bit_exact_on_the_fast_path(tmp_path, delimiter):
    gen = np.random.default_rng(len(delimiter) + ord(delimiter))
    n = 2 * LOAD_ROWS + 1
    X = gen.normal(scale=1e3, size=(n, 4))
    X.flat[gen.choice(X.size, len(SPECIALS), replace=False)] = SPECIALS
    table = FlowTable.of(X, gen.choice(SUB_ATTACKS, n).tolist())
    spec = write_delimited(table, tmp_path / "flows.csv",
                           ColumnSpec(("a", "b", "c", "d"), "Attack", delimiter))
    fast = _load_columns(tmp_path / "flows.csv", spec)
    assert fast is not None
    assert fast == table


def test_every_roster_label_reads_as_its_code_on_the_fast_path(tmp_path):
    # the removed sub-attack included: cleaning drops its rows, loading keeps them
    rows = "".join(f"{code},{name}\n" for code, name in enumerate(SUB_ATTACKS))
    path = _write(tmp_path, ("a,Attack\n" + rows).encode())
    spec = ColumnSpec(("a",), "Attack")
    fast = _load_columns(path, spec)
    assert fast is not None
    assert fast.sub.tolist() == list(range(len(SUB_ATTACKS)))
    assert fast == _scan_rows(path, spec)


# After a first block of good rows; a header over two lines cannot move there.
GOOD_BLOCK = b"5,6,Benign\n" * LOAD_ROWS


@pytest.mark.parametrize("tail", [
    b"1,2,Benign\n\n3,4,Benign\n",                  # a blank line
    b"1,2,Benign\n3,Benign\n",                       # a short row
    b"1,2, Benign\n",                                # a label with a space
    b"1,2\x1c,Benign\n",                             # a separator byte numpy strips
    b"1,2_0,Benign\n",                               # an underscore numpy rejects
    b'1,"2,Benign\n3",4,Benign\n',                    # a quoted field over two lines
    b'1,"2\n",Benign\n',                              # fewer rows than line feeds
    b"1,2,Benign-X\n",                               # a label off the roster
    b"1,2," + b"B" * 40 + b"\n",                      # a label longer than any
    b"1,2,Benign\r3,4,Benign\n",                     # rows past the line-feed count
])
def test_fast_path_defers_to_the_row_scan_past_the_first_block(tmp_path, tail):
    path = _write(tmp_path, b"a,b,Attack\n" + GOOD_BLOCK + tail)
    assert _declines(path, SPEC_B)
    assert _outcome(load_records, path, SPEC_B) == _outcome(_scan_rows, path, SPEC_B)


def test_a_declined_file_emits_no_warning(tmp_path):
    # numpy warns that a blank line does not count towards max_rows
    path = _write(tmp_path, b"a,b,Attack\n" + GOOD_BLOCK + b"\n3,4,Benign\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _load_columns(path, SPEC_B) is None
        with pytest.raises(LoadError, match="row 258 has too few fields"):
            load_records(path, SPEC_B)
    assert [str(w.message) for w in caught] == []
