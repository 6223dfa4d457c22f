"""Tick-to-volatility pipeline tests with hand-derived fixtures.

The block tick reader and the one-pass sampler are checked against the
row-by-row loader and the per-session mask loop they replaced, kept here as
oracles (`loop_load_ticks`, `loop_sample_five_minute`), and `tvewd rv`,
which streams the file, against `rv_pipeline(*load_ticks(path))`.
"""

import contextlib
import csv
import io
import json
import math
import os
import re
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tvewd import rv
from tvewd.cli import main
from tvewd.rv import (
    BIN_MINUTES,
    FIXED_EXCLUSION_RULES,
    DataQualityError,
    DayBars,
    TradingCalendar,
    annualize,
    load_ticks,
    realized_variance,
    rv_pipeline,
    sample_five_minute,
    store_rv,
)
from tvewd.series import atomic_write, store_series


def ticks(*pairs):
    ts = np.array([t for t, _ in pairs], dtype="datetime64[s]")
    px = np.array([p for _, p in pairs], dtype=float)
    return ts, px


MORNING = TradingCalendar(bins_per_day=2, open_offset_minutes=9 * 60)


def test_last_price_in_window():
    ts, px = ticks(
        ("2021-03-02T09:01:00", 10.0),
        ("2021-03-02T09:04:00", 11.0),
        ("2021-03-02T09:07:00", 12.0),
    )
    days = sample_five_minute(ts, px, MORNING)  # bins end 09:05, 09:10
    assert len(days) == 1
    assert days[0].prices.tolist() == [11.0, 12.0]
    assert days[0].dropped_leading == 0


def test_carry_forward_single_tick():
    cal = TradingCalendar(bins_per_day=3, open_offset_minutes=9 * 60)
    ts, px = ticks(("2021-03-02T09:00:00", 10.0))
    days = sample_five_minute(ts, px, cal)
    assert days[0].prices.tolist() == [10.0, 10.0, 10.0]


def test_bar_count_matches_configured_bins():
    rng = np.random.default_rng(3)
    base = np.datetime64("2021-03-02T09:00:30", "s")
    stamps = base + np.sort(rng.integers(0, 7 * 5 * 60 - 60, 40))
    prices = 100.0 + rng.standard_normal(40).cumsum() * 0.1
    cal = TradingCalendar(bins_per_day=7, open_offset_minutes=9 * 60)
    days = sample_five_minute(stamps.astype("datetime64[s]"), prices, cal)
    assert len(days[0].prices) == 7


def test_leading_empty_bins_dropped_not_backfilled():
    cal = TradingCalendar(bins_per_day=4, open_offset_minutes=9 * 60)
    ts, px = ticks(("2021-03-02T09:12:00", 10.0))  # first two bins have no tick
    days = sample_five_minute(ts, px, cal)
    assert days[0].dropped_leading == 2
    assert days[0].prices.tolist() == [10.0, 10.0]


def test_excluded_dates_dropped():
    cal = TradingCalendar(
        excluded_dates=("2021-07-05",), bins_per_day=2, open_offset_minutes=9 * 60
    )
    ts, px = ticks(
        ("2021-07-05T09:01:00", 10.0),
        ("2021-07-06T09:01:00", 11.0),
    )
    days = sample_five_minute(ts, px, cal)
    assert [str(d.date) for d in days] == ["2021-07-06"]


@pytest.mark.parametrize(
    "field, value",
    [("bins_per_day", 2.5), ("open_offset_minutes", 7.5), ("bins_per_day", 288.0),
     ("bins_per_day", True), ("open_offset_minutes", "30")],
)
def test_calendar_refuses_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{field} must be an integer, got {value!r}')}$"):
        TradingCalendar(**{field: value})
    TradingCalendar(**{field: np.int64(3)})  # NumPy integers pass


@pytest.mark.parametrize(
    "day", ["2020-12-24", "2020-12-25", "2020-12-26", "2020-12-31", "2021-01-01", "2021-01-02"]
)
def test_fixed_year_end_exclusions(day):
    assert TradingCalendar().is_excluded(np.datetime64(day, "D"))
    assert not TradingCalendar().is_excluded(np.datetime64("2021-03-02", "D"))


def test_session_cutoff_assigns_evening_ticks_to_next_day():
    cal = TradingCalendar(session_cutoff="18:00")
    ts = np.array(
        ["2021-03-02T17:59:00", "2021-03-02T18:00:00", "2021-03-03T02:00:00"],
        dtype="datetime64[s]",
    )
    sessions = cal.session_date(ts)
    assert [str(s) for s in sessions] == ["2021-03-02", "2021-03-03", "2021-03-03"]
    # midnight cutoff keeps plain calendar dates
    plain = TradingCalendar().session_date(ts)
    assert [str(s) for s in plain] == ["2021-03-02", "2021-03-02", "2021-03-03"]


def test_sample_rejects_unsorted_timestamps():
    ts, px = ticks(("2021-03-02T09:04:00", 10.0), ("2021-03-02T09:01:00", 11.0))
    with pytest.raises(DataQualityError, match="non-decreasing"):
        sample_five_minute(ts, px, MORNING)


def test_sample_empty_input_gives_empty_output():
    ts = np.array([], dtype="datetime64[s]")
    assert sample_five_minute(ts, np.array([]), MORNING) == []


def day_bars(prices, date="2021-03-02"):
    return DayBars(date=np.datetime64(date, "D"), prices=np.asarray(prices, dtype=float))


def test_realized_variance_zero_for_constant_prices():
    dates, rv, warnings = realized_variance([day_bars([100.0, 100.0, 100.0])])
    assert rv.tolist() == [0.0]
    assert warnings == []


def test_realized_variance_hand_arithmetic():
    # consecutive log-returns of exactly 0.01 and -0.02
    p0 = 100.0
    prices = [p0, p0 * math.exp(0.01), p0 * math.exp(0.01) * math.exp(-0.02)]
    _, rv, _ = realized_variance([day_bars(prices)])
    assert rv[0] == pytest.approx(0.01**2 + 0.02**2, rel=1e-12)


def test_realized_variance_two_price_day():
    _, rv, _ = realized_variance([day_bars([100.0, 101.0])])
    assert rv[0] == pytest.approx(math.log(1.01) ** 2, rel=1e-12)


def test_realized_variance_price_scale_invariance():
    rng = np.random.default_rng(4)
    prices = 50.0 * np.exp(rng.standard_normal(80) * 0.001).cumprod()
    _, rv1, _ = realized_variance([day_bars(prices)])
    _, rv2, _ = realized_variance([day_bars(prices * 7.25)])
    assert rv1[0] == pytest.approx(rv2[0], rel=1e-12)


def test_realized_variance_short_day_dropped_with_warning():
    dates, rv, warnings = realized_variance(
        [day_bars([100.0]), day_bars([100.0, 101.0], date="2021-03-03")]
    )
    assert len(rv) == 1
    assert str(dates[0]) == "2021-03-03"
    assert len(warnings) == 1 and "2021-03-02" in warnings[0]


def test_annualize_values():
    dates = np.array(["2021-03-02", "2021-03-03", "2021-03-04"], dtype="datetime64[D]")
    series = annualize(dates, np.array([0.0, 0.0005, 1.0 / 252.0]), label="CL")
    assert series.values[0] == 0.0
    assert series.values[1] == pytest.approx(100.0 * math.sqrt(252.0 * 0.0005), rel=1e-15)
    assert series.values[1] == pytest.approx(35.496478698597695, rel=1e-12)
    assert series.values[2] == pytest.approx(100.0, rel=1e-12)
    assert series.label == "CL"


def test_annualize_monotone_and_zero_iff_zero():
    rng = np.random.default_rng(5)
    rv = np.sort(rng.uniform(0.0, 0.01, 30))
    dates = np.datetime64("2021-03-01", "D") + np.arange(30)
    out = annualize(dates, rv).values
    assert np.all(np.diff(out) >= 0)
    assert np.all((out == 0) == (rv == 0))


def test_annualize_rejects_negative_rv():
    dates = np.array(["2021-03-02"], dtype="datetime64[D]")
    with pytest.raises(DataQualityError, match="negative"):
        annualize(dates, np.array([-1e-9]))


def test_load_ticks_and_pipeline(tmp_path):
    path = str(tmp_path / "ticks.csv")
    atomic_write(
        path,
        "timestamp,price\n"
        "2021-03-02T09:01:00,10\n"
        "2021-03-02T09:04:00,11\n"
        "2021-03-02T09:07:00,12\n"
        "2021-03-03T09:02:00,12\n"
        "2021-03-03T09:08:00,12.5\n",
    )
    ts, px = load_ticks(path)
    vol, raw, warnings = rv_pipeline(ts, px, MORNING, label="CL")
    assert [str(d) for d in vol.dates] == ["2021-03-02", "2021-03-03"]
    expected_rv0 = math.log(12.0 / 11.0) ** 2
    assert raw.values[0] == pytest.approx(expected_rv0, rel=1e-12)
    assert vol.values[0] == pytest.approx(100 * math.sqrt(252 * expected_rv0), rel=1e-12)
    assert warnings == []
    out = str(tmp_path / "rv.csv")
    store_rv(raw.dates, raw.values, out)
    with open(out) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "date,rv"
    assert float(lines[1].split(",")[1]) == raw.values[0]


def test_load_ticks_rejects_bad_rows(tmp_path):
    path = str(tmp_path / "ticks.csv")
    atomic_write(path, "timestamp,price\n2021-03-02T09:01:00,-5\n")
    with pytest.raises(DataQualityError, match="row 1"):
        load_ticks(path)
    atomic_write(path, "timestamp,price\nwhenever,5\n")
    with pytest.raises(DataQualityError, match="row 1"):
        load_ticks(path)
    atomic_write(
        path, "timestamp,price\n2021-03-02T09:04:00,10\n2021-03-02T09:01:00,11\n"
    )
    with pytest.raises(DataQualityError, match="row 2"):
        load_ticks(path)
    for newline in ("\n", "\r\n"):
        atomic_write(path, f'timestamp,price{newline}2021-03-02T09:00:00,9{newline}"2021-03-02T09:01:00{newline}",10{newline}')
        message = f"^{re.escape(path)}: row 2: line break in a quoted field$"
        with pytest.raises(DataQualityError, match=message):
            load_ticks(path)
        with pytest.raises(DataQualityError, match=message):
            loop_load_ticks(path)


def test_load_ticks_rejects_missing_timestamps_and_non_finite_prices(tmp_path):
    path = str(tmp_path / "ticks.csv")
    atomic_write(path, "timestamp,price\nNaT,100.0\n")
    with pytest.raises(DataQualityError, match="row 1: bad timestamp 'NaT'"):
        load_ticks(path)
    atomic_write(path, "timestamp,price\n,100.0\n2021-03-02T09:01:00,100.0\n")
    with pytest.raises(DataQualityError, match="row 1: bad timestamp ''"):
        load_ticks(path)
    atomic_write(path, "timestamp,price\n2021-03-02T09:01:00,10\n2021-03-02T09:02:00,nan\n")
    with pytest.raises(DataQualityError, match="row 2: non-finite price 'nan'"):
        load_ticks(path)
    atomic_write(path, "timestamp,price\n2021-03-02T09:01:00,-inf\n")
    with pytest.raises(DataQualityError, match="row 1: non-finite price '-inf'"):
        load_ticks(path)


def test_sample_rejects_nat_timestamps():
    ts = np.array(["2021-03-02T09:01:00", "NaT"], dtype="datetime64[s]")
    with pytest.raises(DataQualityError, match="NaT"):
        sample_five_minute(ts, np.array([10.0, 11.0]), MORNING)


# ---------------------------------------------------------------------------
# the bulk tick reader against the row-by-row loader
# ---------------------------------------------------------------------------

def loop_load_ticks(path):
    """One csv row at a time: one np.datetime64 and one float per row."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataQualityError(f"{path}: empty file")
    header = tuple(h.strip() for h in rows[0])
    if header != ("timestamp", "price"):
        raise DataQualityError(f"{path}: expected header 'timestamp,price', got {','.join(header)!r}")
    stamps = []
    prices = []
    for i, row in enumerate(rows[1:], start=1):
        if any("\n" in field or "\r" in field for field in row):
            raise DataQualityError(f"{path}: row {i}: line break in a quoted field")
        if len(row) != 2:
            raise DataQualityError(f"{path}: row {i}: expected 2 fields, got {len(row)}")
        raw_ts, raw_p = row[0].strip(), row[1].strip()
        try:
            stamp = np.datetime64(raw_ts.replace(" ", "T"), "s")
        except ValueError as exc:
            raise DataQualityError(f"{path}: row {i}: bad timestamp {raw_ts!r}") from exc
        if np.isnat(stamp):
            raise DataQualityError(f"{path}: row {i}: bad timestamp {raw_ts!r}")
        stamps.append(stamp)
        try:
            p = float(raw_p)
        except ValueError as exc:
            raise DataQualityError(f"{path}: row {i}: bad price {raw_p!r}") from exc
        if not math.isfinite(p):
            raise DataQualityError(f"{path}: row {i}: non-finite price {raw_p!r}")
        if p <= 0:
            raise DataQualityError(f"{path}: row {i}: non-positive price {raw_p!r}")
        prices.append(p)
    ts = np.array(stamps, dtype="datetime64[s]")
    px = np.array(prices, dtype=float)
    if len(ts) > 1:
        steps = np.diff(ts).astype(int)
        if np.any(steps < 0):
            bad = int(np.argmax(steps < 0))
            raise DataQualityError(
                f"{path}: row {bad + 2}: timestamps must be non-decreasing "
                f"({ts[bad]} followed by {ts[bad + 1]})"
            )
    return ts, px


TICK_FAULTS = {
    "blank line": lambda row: None,
    "1 field": lambda row: [row[0]],
    "3 fields": lambda row: [row[0], row[1], "1"],
    "bad stamp": lambda row: ["whenever", row[1]],
    "month 13": lambda row: ["2021-13-02T09:00:00", row[1]],
    "empty stamp": lambda row: ["", row[1]],
    "NaT": lambda row: ["NaT", row[1]],
    "bad price": lambda row: [row[0], "1.2.3"],
    "empty price": lambda row: [row[0], ""],
    "zero price": lambda row: [row[0], "0.0"],
    "negative price": lambda row: [row[0], "-12.5"],
    "nan price": lambda row: [row[0], "nan"],
    "inf price": lambda row: [row[0], "inf"],
    "decreasing stamp": lambda row: ["2020-01-01T00:00:00", row[1]],
}


@st.composite
def tick_files(draw):
    """A tick file as text: valid rows in varied layouts, then injected faults."""
    n = draw(st.integers(0, 30))
    base = np.datetime64("2021-03-01T17:30:00", "s")
    offsets = np.cumsum(draw(st.lists(st.sampled_from([0, 1, 59, 300, 3600, 86399]), min_size=n, max_size=n)))
    stamps = np.datetime_as_string(base + offsets.astype(np.int64), unit="s").tolist()
    prices = draw(st.lists(
        st.floats(1e-3, 1e4).map(repr) | st.sampled_from(["10", "5.", ".5", "+7.25", "1e2"]),
        min_size=n, max_size=n,
    ))
    clean = [[t.replace("T", " ") if draw(st.booleans()) else t, p] for t, p in zip(stamps, prices)]
    rows = list(clean)
    for kind in draw(st.lists(st.sampled_from(sorted(TICK_FAULTS)), max_size=2)):
        if rows:
            at = draw(st.integers(0, len(rows) - 1))
            rows[at] = TICK_FAULTS[kind](clean[at])
    pad = st.sampled_from(["", " ", "\t", "  "])
    quote = draw(st.booleans())
    # in a quarter of the files, a quoted field may hold a line break
    line_break = st.sampled_from(["", "", "\n", "\r\n"] if draw(st.integers(0, 3)) == 0 else [""])

    def field(text):
        if quote and draw(st.booleans()):
            text = f'"{draw(line_break)}{text}{draw(line_break)}"'
        # pad only after a quoted field: a space before the opening quote makes the quote literal text
        return f"{text}{draw(pad)}" if text.startswith('"') else f"{draw(pad)}{text}{draw(pad)}"

    lines = ["timestamp,price"] + ["" if row is None else ",".join(map(field, row)) for row in rows]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines)
    return text + newline if draw(st.booleans()) else text


# characters per block: from one line per block to the whole of a small file
BLOCK_SIZES = st.integers(1, 64) | st.integers(65, 4096)


@settings(max_examples=400, deadline=None)
@given(tick_files(), BLOCK_SIZES)
@example("timestamp,price\nNaT,100.0\n", rv.TICK_BLOCK_BYTES)
@example(",price\n", rv.TICK_BLOCK_BYTES)
@example("timestamp,price", rv.TICK_BLOCK_BYTES)
@example("timestamp,price\n\n", rv.TICK_BLOCK_BYTES)
@example("timestamp,price\n2021-03-02T09:01:00,10\n\n", rv.TICK_BLOCK_BYTES)
@example(" timestamp , price \r\n 2021-03-02 09:01:00 , 10 \r\n", rv.TICK_BLOCK_BYTES)
@example('timestamp,price\n"2021-03-02T09:01:00" ,"10"\n', rv.TICK_BLOCK_BYTES)
@example('timestamp,price\n "2021-03-02T09:01:00",10\n', rv.TICK_BLOCK_BYTES)
@example('timestamp,price\n"2021-03-02T09:01:00\n",10\n', rv.TICK_BLOCK_BYTES)
@example(  # a decreasing stamp in the first block, a bad price in a later one: the price is named
    "timestamp,price\n2021-03-02T09:04:00,10\n2021-03-02T09:01:00,11\n"
    "2021-03-02T09:05:00,12\n2021-03-02T09:06:00,-1\n", 1,
)
@example(  # the decreasing step is the edge between two blocks
    "timestamp,price\n2021-03-02T09:04:00,10\n2021-03-02T09:05:00,11\n2021-03-02T09:01:00,12\n", 30,
)
def test_load_ticks_matches_the_row_loop(text, block_bytes):
    """Bitwise-equal arrays, or the loop's exact DataQualityError message, at any block size."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(rv, "TICK_BLOCK_BYTES", block_bytes):
        path = os.path.join(tmp, "ticks.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        try:
            want = loop_load_ticks(path)
        except DataQualityError as exc:
            with pytest.raises(DataQualityError) as got:
                load_ticks(path)
            assert str(got.value) == str(exc)
            return
        ts, px = load_ticks(path)
    assert ts.dtype == want[0].dtype and px.dtype == want[1].dtype
    np.testing.assert_array_equal(ts.view(np.int64), want[0].view(np.int64))
    np.testing.assert_array_equal(px.view(np.int64), want[1].view(np.int64))


def test_load_ticks_refuses_what_the_bulk_read_cannot_convert(tmp_path):
    path = str(tmp_path / "ticks.csv")
    atomic_write(path, "timestamp,price\n2021-03-02T09:01:00,1_000\n")
    with pytest.raises(DataQualityError, match="unreadable tick rows"):
        load_ticks(path)


# ---------------------------------------------------------------------------
# the one-pass sampler against the per-session mask loop
# ---------------------------------------------------------------------------

def loop_sample_five_minute(timestamps, prices, calendar):
    """One boolean mask over all ticks per session, with the calendar's rules
    written out per date."""
    hh, mm = map(int, calendar.session_cutoff.split(":"))
    cutoff = hh * 60 + mm
    excluded = {np.datetime64(d, "D") for d in calendar.excluded_dates}
    ts = timestamps.astype("datetime64[s]")
    if cutoff == 0:
        sessions = ts.astype("datetime64[D]")
    else:
        sessions = (ts - np.timedelta64(cutoff * 60, "s")).astype("datetime64[D]") + np.timedelta64(1, "D")
    out = []
    for day in np.unique(sessions):
        date = day.astype(object)
        if day in excluded or (date.month, date.day) in FIXED_EXCLUSION_RULES:
            continue
        mask = sessions == day
        day_ts = ts[mask].astype("int64")
        day_px = prices[mask]
        if cutoff == 0:
            open_s = day.astype("datetime64[s]")
        else:
            open_s = (day - np.timedelta64(1, "D")).astype("datetime64[s]") + np.timedelta64(cutoff * 60, "s")
        open_s = (open_s + np.timedelta64(calendar.open_offset_minutes * 60, "s")).astype("int64")
        ends = open_s + np.arange(1, calendar.bins_per_day + 1) * BIN_MINUTES * 60
        idx = np.searchsorted(day_ts, ends, side="right") - 1
        first = int(np.argmax(idx >= 0)) if np.any(idx >= 0) else calendar.bins_per_day
        kept = idx[first:]
        if len(kept) == 0:
            continue
        out.append(DayBars(date=day, prices=day_px[kept], dropped_leading=first))
    return out


@st.composite
def sampled_ticks(draw):
    cutoff = draw(st.sampled_from(["00:00", "18:00"]) | st.builds(
        "{:02d}:{:02d}".format, st.integers(0, 23), st.integers(0, 59)))
    bins = draw(st.integers(1, 300))
    offset = draw(st.integers(0, 24 * 60))
    # the fixed year-end days fall in this span
    start = np.datetime64("2020-12-21T00:00:00", "s") + draw(st.integers(0, 86399))
    n = draw(st.integers(1, 120))
    # few distinct step sizes, so tied stamps are common
    steps = draw(st.lists(st.sampled_from([0, 0, 7, 299, 300, 301, 3600, 5 * 3600, 86400]), min_size=n, max_size=n))
    ts = start + np.cumsum(steps).astype(np.int64)
    prices = np.array(draw(st.lists(st.floats(1.0, 500.0), min_size=n, max_size=n)))
    dates = np.unique(ts.astype("datetime64[D]")).astype(str).tolist()
    excluded = tuple(draw(st.lists(st.sampled_from(dates), max_size=3, unique=True)))
    calendar = TradingCalendar(
        excluded_dates=excluded, session_cutoff=cutoff, open_offset_minutes=offset, bins_per_day=bins
    )
    return ts, prices, calendar


@settings(max_examples=300, deadline=None)
@given(sampled_ticks())
@example((  # every tick after the last bin end of its session
    np.array(["2021-03-02T23:00:00", "2021-03-02T23:30:00"], dtype="datetime64[s]"),
    np.array([10.0, 11.0]),
    TradingCalendar(bins_per_day=3, open_offset_minutes=60),
))
@example((  # every tick before the first bin end, and a tie
    np.array(["2021-03-02T00:10:00", "2021-03-02T00:10:00", "2021-03-03T18:00:00"], dtype="datetime64[s]"),
    np.array([10.0, 11.0, 12.0]),
    TradingCalendar(bins_per_day=1, open_offset_minutes=30, session_cutoff="18:00"),
))
def test_sample_five_minute_matches_the_session_loop(case):
    ts, prices, calendar = case
    got = sample_five_minute(ts, prices, calendar)
    want = loop_sample_five_minute(ts, prices, calendar)
    assert [d.date for d in got] == [d.date for d in want]
    assert [type(d.dropped_leading) for d in got] == [int] * len(got)
    assert [d.dropped_leading for d in got] == [d.dropped_leading for d in want]
    for g, w in zip(got, want):
        assert g.date.dtype == w.date.dtype
        np.testing.assert_array_equal(g.prices.view(np.int64), w.prices.view(np.int64))


def test_is_excluded_takes_an_array_of_dates():
    cal = TradingCalendar(excluded_dates=("2021-07-05",))
    days = np.array(["2020-12-24", "2021-07-05", "2021-07-06", "2021-01-02", "2021-01-03"], dtype="datetime64[D]")
    assert cal.is_excluded(days).tolist() == [True, True, False, True, False]
    assert [bool(cal.is_excluded(d)) for d in days] == [True, True, False, True, False]


# ---------------------------------------------------------------------------
# `tvewd rv` streams the file in blocks of whole sessions
# ---------------------------------------------------------------------------

@st.composite
def session_tick_files(draw):
    """A tick file of a few sessions, the calendar that samples it, and a
    block size below the text of its largest session."""
    cutoff = draw(st.sampled_from(["00:00", "18:00"]) | st.builds(
        "{:02d}:{:02d}".format, st.integers(0, 23), st.integers(0, 59)))
    # the fixed year-end days fall in this span
    start = np.datetime64("2020-12-21T00:00:00", "s") + draw(st.integers(0, 86399))
    n = draw(st.integers(1, 150))
    steps = draw(st.lists(st.sampled_from([0, 7, 299, 300, 301, 3600, 5 * 3600, 86400]), min_size=n, max_size=n))
    ts = start + np.cumsum(steps).astype(np.int64)
    prices = draw(st.lists(st.floats(1.0, 500.0), min_size=n, max_size=n))
    rows = [[t, repr(p)] for t, p in zip(np.datetime_as_string(ts, unit="s").tolist(), prices)]
    for kind in draw(st.lists(st.sampled_from(sorted(TICK_FAULTS)), max_size=1)):
        at = draw(st.integers(0, n - 1))
        rows[at] = TICK_FAULTS[kind](rows[at])
    lines = ["" if row is None else ",".join(row) for row in rows]
    dates = np.unique(ts.astype("datetime64[D]")).astype(str).tolist()
    calendar = TradingCalendar(
        excluded_dates=tuple(draw(st.lists(st.sampled_from(dates), max_size=2, unique=True))),
        session_cutoff=cutoff,
        open_offset_minutes=draw(st.integers(0, 24 * 60)),
        bins_per_day=draw(st.integers(1, 300)),
    )
    session_chars = np.bincount(
        np.unique(calendar.session_date(ts), return_inverse=True)[1], weights=[len(line) + 1 for line in lines]
    )
    block_bytes = draw(st.integers(1, max(1, int(session_chars.max()) - 1)))
    return "timestamp,price\n" + "\n".join(lines) + "\n", calendar, block_bytes


@settings(max_examples=200, deadline=None)
@given(session_tick_files())
def test_rv_command_streams_the_bits_of_the_whole_file_pipeline(case):
    """`tvewd rv` at any block size writes what rv_pipeline(*load_ticks(path))
    gives, warns as it warns and fails with its message, writing nothing."""
    text, calendar, block_bytes = case
    with tempfile.TemporaryDirectory() as tmp:
        path, config = os.path.join(tmp, "ticks.csv"), os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({
                "session_cutoff": calendar.session_cutoff, "bins_per_day": calendar.bins_per_day,
                "open_offset_minutes": calendar.open_offset_minutes,
                "excluded_dates": list(calendar.excluded_dates), "label": "CL",
                "rv_output": os.path.join(tmp, "rv.csv"),
            }, fh)
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(rv, "TICK_BLOCK_BYTES", block_bytes), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["rv", "--input", path, "--output", os.path.join(tmp, "vol.csv"), "--config", config])
        try:
            vol, raw, warnings = rv_pipeline(*load_ticks(path), calendar, label="CL")
        except DataQualityError as exc:
            assert code == 1
            assert json.loads(err.getvalue()) == {"error": "DataQualityError", "message": str(exc)}
            assert sorted(os.listdir(tmp)) == ["cfg.json", "ticks.csv"]
            return
        assert code == 0
        assert err.getvalue() == "".join(f"warning: {w}\n" for w in warnings)
        assert out.getvalue() == f"wrote {len(vol)} annualized volatility observations to {tmp}/vol.csv\n"
        store_series(vol, os.path.join(tmp, "want-vol.csv"))
        store_rv(raw.dates, raw.values, os.path.join(tmp, "want-rv.csv"))
        for name in ("vol.csv", "rv.csv"):
            with open(os.path.join(tmp, name), "rb") as got, open(os.path.join(tmp, f"want-{name}"), "rb") as want:
                assert got.read() == want.read()


def write_daily_ticks(path, sessions, per_session=200, seed=0):
    """`per_session` ticks at random times on each of `sessions` consecutive days."""
    rng = np.random.default_rng(seed)
    days = np.datetime64("2021-03-01", "D") + np.arange(sessions)
    stamps = days.astype("datetime64[s]")[:, None] + np.sort(rng.integers(0, 86400, (sessions, per_session)))
    prices = 100.0 * np.exp(np.cumsum(rng.standard_normal(sessions * per_session) * 1e-3))
    text = np.datetime_as_string(stamps.ravel(), unit="s").tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("timestamp,price\n" + "".join(f"{t},{p!r}\n" for t, p in zip(text, prices.tolist())))


def traced_rv_peak(tmp_path, sessions):
    """Peak bytes that tracemalloc sees during an in-process `tvewd rv`."""
    ticks, vol = tmp_path / f"ticks-{sessions}.csv", tmp_path / f"vol-{sessions}.csv"
    write_daily_ticks(ticks, sessions)
    with contextlib.redirect_stdout(io.StringIO()):
        tracemalloc.start()
        try:
            assert main(["rv", "--input", str(ticks), "--output", str(vol)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


# What a session leaves behind: its date, rv and volatility, and its line of
# the volatility CSV while that is written.  Its ticks are not held.
OUTPUT_BYTES_PER_SESSION = 1024


def test_rv_command_memory_grows_with_sessions_not_ticks(tmp_path, monkeypatch):
    monkeypatch.setattr(rv, "TICK_BLOCK_BYTES", 4096)
    traced_rv_peak(tmp_path, 5)  # first calls fill caches that later calls reuse
    n = 50
    small, large = traced_rv_peak(tmp_path, n), traced_rv_peak(tmp_path, 4 * n)
    assert large - small <= 3 * n * OUTPUT_BYTES_PER_SESSION
