"""Series container and CSV round-trip tests."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tvewd.series import (
    CSV_BLOCK_LINES,
    VolatilitySeries,
    atomic_write,
    business_dates,
    format_value,
    load_series,
    store_series,
    write_csv,
)


def make_series(values, start="2020-01-01", label="x"):
    values = np.asarray(values, dtype=float)
    dates = np.datetime64(start, "D") + np.arange(len(values))
    return VolatilitySeries(dates, values, label)


def test_format_value_round_trips_exactly():
    rng = np.random.default_rng(0)
    for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
        assert float(format_value(x)) == x
    assert format_value(0.1) == "0.1"
    assert float(format_value(1 / 3)) == 1 / 3


def test_store_load_identity(tmp_path):
    rng = np.random.default_rng(1)
    s = make_series(rng.standard_normal(50) * 37.5, label="CL")
    path = str(tmp_path / "s.csv")
    store_series(s, path)
    back = load_series(path, label="CL")
    assert np.array_equal(back.dates, s.dates)
    assert np.array_equal(back.values, s.values)  # bitwise
    assert back.label == "CL"


def test_load_series_default_label_is_file_stem(tmp_path):
    path = str(tmp_path / "NG.csv")
    store_series(make_series([1.0, 2.0]), path)
    assert load_series(path).label == "NG"


def test_load_series_rejects_malformed_rows_with_row_number(tmp_path):
    path = str(tmp_path / "bad.csv")
    atomic_write(path, "date,value\n2020-01-01,1.0\n2020-01-02,oops\n")
    with pytest.raises(ValueError, match="row 2"):
        load_series(path)
    atomic_write(path, "date,value\nnot-a-date,1.0\n")
    with pytest.raises(ValueError, match="row 1"):
        load_series(path)
    atomic_write(path, "date,value\n2020-01-01,1.0,extra\n")
    with pytest.raises(ValueError, match="row 1"):
        load_series(path)
    atomic_write(path, "time,value\n2020-01-01,1.0\n")
    with pytest.raises(ValueError, match="header"):
        load_series(path)


def test_duplicate_or_backward_dates_rejected():
    dates = np.array(["2020-01-01", "2020-01-01"], dtype="datetime64[D]")
    with pytest.raises(ValueError, match="strictly increasing"):
        VolatilitySeries(dates, np.array([1.0, 2.0]))
    dates = np.array(["2020-01-02", "2020-01-01"], dtype="datetime64[D]")
    with pytest.raises(ValueError, match="strictly increasing"):
        VolatilitySeries(dates, np.array([1.0, 2.0]))


def test_series_validation():
    with pytest.raises(ValueError, match="at least one"):
        VolatilitySeries(np.array([], dtype="datetime64[D]"), np.array([]))
    with pytest.raises(ValueError, match="length mismatch"):
        make_series([1.0, 2.0]).__class__(
            np.array(["2020-01-01"], dtype="datetime64[D]"), np.array([1.0, 2.0])
        )
    with pytest.raises(ValueError, match="non-finite"):
        make_series([1.0, np.nan, 2.0])
    s = make_series([1.0, -2.0])  # legal but flagged
    assert any("negative" in w for w in s.warnings)
    assert make_series([1.0, 2.0]).warnings == []


def test_slice_is_positional():
    s = make_series(np.arange(10.0))
    sub = s.slice(3, 7)
    assert np.array_equal(sub.values, np.arange(3.0, 7.0))
    assert sub.dates[0] == s.dates[3]
    assert len(sub) == 4


def test_business_dates_skips_weekends():
    d = business_dates("2000-01-03", 10)  # a Monday
    assert len(d) == 10
    assert len(np.unique(d)) == 10
    weekdays = (d.astype("datetime64[D]").view("int64") - 4) % 7  # 1970-01-01 is a Thursday
    assert np.all(weekdays < 5)


def test_atomic_write_replaces_existing(tmp_path):
    path = str(tmp_path / "out.csv")
    atomic_write(path, "a\n")
    atomic_write(path, "b\n")
    with open(path) as fh:
        assert fh.read() == "b\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


MAX_DOUBLE = np.finfo(float).max


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(-5e-308, 5e-308, allow_subnormal=True),
            st.floats(0.99 * MAX_DOUBLE, MAX_DOUBLE).flatmap(lambda x: st.sampled_from([x, -x])),
        ),
        min_size=1,
        max_size=40,
    )
)
@example([5e-324, -5e-324, 0.0, -0.0, MAX_DOUBLE, -MAX_DOUBLE, 2.2250738585072014e-308])
def test_store_load_round_trips_every_finite_double(values):
    """Subnormals, signed zeros and the largest doubles come back bit for bit,
    one LF-terminated line per observation after the header."""
    s = make_series(values)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.csv")
        store_series(s, path)
        with open(path, "rb") as fh:
            data = fh.read()
        back = load_series(path)
    assert data.endswith(b"\n") and data.count(b"\n") == 1 + len(values)
    assert data.split(b"\n", 1)[0] == b"date,value"
    np.testing.assert_array_equal(back.values.view(np.int64), s.values.view(np.int64))
    np.testing.assert_array_equal(back.dates, s.dates)


CELL = st.text(st.characters(blacklist_characters=",\n\r", blacklist_categories=("Cs",)), max_size=8)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda width: st.tuples(
            st.lists(CELL, min_size=width, max_size=width),
            st.lists(st.lists(CELL, min_size=width, max_size=width), max_size=20),
        )
    )
)
def test_write_csv_writes_the_header_then_one_lf_line_per_row(table):
    header, rows = table
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        write_csv(path, header, iter(rows))
        with open(path, "rb") as fh:
            data = fh.read()
        assert os.listdir(tmp) == ["t.csv"]
    assert data.endswith(b"\n")
    lines = data.decode("utf-8").split("\n")[:-1]
    assert lines == [",".join(header)] + [",".join(row) for row in rows]


def test_write_csv_streams_blocks_with_the_bytes_of_one_join(tmp_path):
    rows = [(str(i), format_value(i / 7.0)) for i in range(2 * CSV_BLOCK_LINES + 5)]
    path = str(tmp_path / "t.csv")
    write_csv(path, ("i", "x"), iter(rows))
    one_join = "\n".join(["i,x"] + [",".join(row) for row in rows] + [""])
    with open(path, "rb") as fh:
        assert fh.read() == one_join.encode("utf-8")


def test_write_csv_failing_partway_keeps_the_previous_file(tmp_path):
    path = str(tmp_path / "t.csv")
    write_csv(path, ("a",), [("old",)])

    def rows():
        for i in range(3 * CSV_BLOCK_LINES):
            if i == 2 * CSV_BLOCK_LINES + 1:  # two blocks are already in the temporary file
                raise RuntimeError("row source failed")
            yield (str(i),)

    with pytest.raises(RuntimeError, match="row source failed"):
        write_csv(path, ("a",), rows())
    with open(path, "rb") as fh:
        assert fh.read() == b"a\nold\n"
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
