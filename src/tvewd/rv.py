"""Tick-to-volatility pipeline: 5-minute sampling, realized variance, annualization.

Raw trade ticks are grouped into trading sessions (configurable day-boundary
cutoff for round-the-clock markets), sampled onto a fixed grid of 5-minute
bins by last-tick-at-or-before-bin-end, squared log returns are summed per
day, and the result is annualized to percentage volatility units.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Iterator, NoReturn
from warnings import catch_warnings, filterwarnings

import numpy as np

from .series import VolatilitySeries, _check_integer, format_value, write_csv

__all__ = [
    "DataQualityError",
    "TradingCalendar",
    "DayBars",
    "load_ticks",
    "sample_five_minute",
    "realized_variance",
    "annualize",
    "rv_pipeline",
    "stream_rv",
]

BIN_MINUTES = 5
ANNUALIZATION_DAYS = 252

# Characters of tick-file lines read and parsed per block (whole lines, so a
# block may run one line over).
TICK_BLOCK_BYTES = 1 << 20

# Fixed year-end exclusion rules, applied on top of the configured list.
FIXED_EXCLUSION_RULES = ((12, 24), (12, 25), (12, 26), (12, 31), (1, 1), (1, 2))


class DataQualityError(ValueError):
    """Raised when input data violates a validity contract."""


def _parse_hhmm(text: str) -> int:
    parts = text.split(":") if isinstance(text, str) else []
    if len(parts) != 2:
        raise ValueError(f"bad time-of-day {text!r}, expected HH:MM")
    hh, mm = int(parts[0]), int(parts[1])
    if not (0 <= hh < 24 and 0 <= mm < 60):
        raise ValueError(f"time-of-day out of range: {text!r}")
    return hh * 60 + mm


@dataclass
class TradingCalendar:
    """Session and exclusion rules for tick data.

    Attributes:
        excluded_dates: explicit ISO dates to drop (e.g. federal holidays),
            as strings or datetime64 values; a number or bool is refused.
        session_cutoff: HH:MM local clock at which a new trading day starts.
            "00:00" means plain calendar days; "18:00" assigns ticks from
            18:00 onward to the next calendar date's session.
        open_offset_minutes: offset of the first bin start from session open.
        bins_per_day: number of 5-minute bins per session.
    """

    excluded_dates: tuple[str, ...] = ()
    session_cutoff: str = "00:00"
    open_offset_minutes: int = 0
    bins_per_day: int = 288

    def __post_init__(self):
        # a session date is the calendar date of the clock moved forward by
        # 24 h minus the cutoff (by nothing for a midnight cutoff)
        self._shift = np.timedelta64(-_parse_hhmm(self.session_cutoff) % 1440 * 60, "s")
        _check_integer(self.bins_per_day, "bins_per_day")
        _check_integer(self.open_offset_minutes, "open_offset_minutes")
        if self.bins_per_day < 1:
            raise ValueError("bins_per_day must be >= 1")
        if self.open_offset_minutes < 0:
            raise ValueError("open_offset_minutes must be >= 0")
        for day in self.excluded_dates:  # numpy would read a number as days after 1970-01-01
            if isinstance(day, numbers.Number):
                raise ValueError(f"excluded_dates entries must be dates, got {day!r}")
        self._excluded = np.array(self.excluded_dates, dtype="datetime64[D]")

    def is_excluded(self, days: np.ndarray) -> np.ndarray:
        """Whether each date is in excluded_dates or on a fixed year-end day (a bool per date)."""
        days = np.asarray(days, dtype="datetime64[D]")
        months = days.astype("datetime64[M]")
        month_day = (months.astype(np.int64) % 12 + 1) * 100 + (days - months).astype(np.int64) + 1
        fixed = np.isin(month_day, [100 * m + d for m, d in FIXED_EXCLUSION_RULES])
        return (fixed | np.isin(days, self._excluded))[()]  # [()] turns a 0-d result into a bool

    def session_date(self, timestamps: np.ndarray) -> np.ndarray:
        """Map tick timestamps to their session date."""
        return (timestamps.astype("datetime64[s]", copy=False) + self._shift).astype("datetime64[D]")

    def session_open(self, day: np.ndarray) -> np.ndarray:
        """Wall-clock open of the session labelled `day` (a date or an array of dates)."""
        return day.astype("datetime64[s]") - self._shift + np.timedelta64(self.open_offset_minutes * 60, "s")


@dataclass
class DayBars:
    """5-minute bar prices for one retained session."""

    date: np.datetime64
    prices: np.ndarray
    dropped_leading: int = 0


def load_ticks(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Load a `timestamp,price` CSV, read in blocks of about TICK_BLOCK_BYTES.

    Returns timestamps (datetime64[s]) and prices.  Malformed rows (a
    quoted field holding a line break among them), empty or NaT timestamps,
    non-finite or non-positive prices and decreasing timestamps raise
    DataQualityError naming the 1-based data row (ties in timestamps are
    allowed); a bad row anywhere in the file is named before a decreasing
    timestamp.
    """
    return _joined(list(_tick_blocks(path)))


def _joined(blocks: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Timestamps and prices of consecutive (timestamps, prices) blocks, end to end."""
    stamps, prices = zip(*blocks) if blocks else ((), ())
    return np.concatenate([np.empty(0, "datetime64[s]"), *stamps]), np.concatenate([np.empty(0), *prices])


def _tick_blocks(path: str) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The checked timestamps and prices of a tick file, one block of lines at a time.

    Each block's lines go through one bulk conversion.  A block the
    conversion refuses, or with a blank line (which it skips), a NaT stamp
    or a price that is not finite and positive, sends the whole file to
    `_raise_first_bad_row`.  A decreasing timestamp, within a block or
    across a block edge, is raised only once the rest of the file has been
    read and found free of bad rows; no block follows it.
    """
    with open(path, "r", encoding="utf-8") as fh:  # universal newlines: every line ends in \n
        header = next(csv.reader(fh), None)
        if header is None:
            raise DataQualityError(f"{path}: empty file")
        header = tuple(h.strip() for h in header)
        if header != ("timestamp", "price"):
            raise DataQualityError(f"{path}: expected header 'timestamp,price', got {','.join(header)!r}")
        # rows before the block, the last stamp before it, and the first decreasing step
        rows, last, disorder = 0, np.empty(0, "datetime64[s]"), None
        while lines := fh.readlines(TICK_BLOCK_BYTES):
            n_rows = len(lines)
            where = f"rows {rows + 1}-{rows + n_rows}"
            try:
                with catch_warnings():
                    # numpy warns of a block of blank lines, and of a timezone after a
                    # stamp followed by spaces (which it still parses right)
                    filterwarnings("ignore", "loadtxt: input contained no data|no explicit representation of timezones")
                    table = np.loadtxt(
                        lines, dtype=[("t", "datetime64[s]"), ("p", "f8")], delimiter=",",
                        comments=None, quotechar='"', ndmin=1,
                    )
            except ValueError as exc:
                _raise_first_bad_row(path, f"{where}: {exc}")
            ts, px = table["t"].copy(), table["p"].copy()
            del lines, table
            if len(ts) != n_rows or np.any(np.isnat(ts)) or not np.all(np.isfinite(px) & (px > 0)):
                _raise_first_bad_row(path, f"{where}: {len(ts)} of {n_rows} rows read")
            if disorder is None:
                stamps = np.concatenate([last, ts])
                steps = np.diff(stamps.view(np.int64))
                if np.any(steps < 0):
                    bad = int(np.argmax(steps < 0))
                    disorder = DataQualityError(
                        f"{path}: row {rows - len(last) + bad + 2}: timestamps must be non-decreasing "
                        f"({stamps[bad]} followed by {stamps[bad + 1]})"
                    )
                else:
                    yield ts, px
            rows, last = rows + n_rows, ts[-1:].copy()
    if disorder is not None:
        raise disorder


def _raise_first_bad_row(path: str, reason: str) -> NoReturn:
    """Raise DataQualityError naming the first bad data row of a file the bulk read refused.

    A file whose rows all pass (a price with digit-group underscores, say) is refused with `reason`.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        for i, row in enumerate(rows, start=1):
            if any("\n" in field or "\r" in field for field in row):
                raise DataQualityError(f"{path}: row {i}: line break in a quoted field")
            if len(row) != 2:
                raise DataQualityError(f"{path}: row {i}: expected 2 fields, got {len(row)}")
            raw_ts, raw_p = row[0].strip(), row[1].strip()
            try:
                bad_ts = np.isnat(np.datetime64(raw_ts.replace(" ", "T"), "s"))
            except ValueError:
                bad_ts = True
            if bad_ts:
                raise DataQualityError(f"{path}: row {i}: bad timestamp {raw_ts!r}")
            try:
                p = float(raw_p)
            except ValueError as exc:
                raise DataQualityError(f"{path}: row {i}: bad price {raw_p!r}") from exc
            if not math.isfinite(p):
                raise DataQualityError(f"{path}: row {i}: non-finite price {raw_p!r}")
            if p <= 0:
                raise DataQualityError(f"{path}: row {i}: non-positive price {raw_p!r}")
    raise DataQualityError(f"{path}: unreadable tick rows ({reason})")


def sample_five_minute(
    timestamps: np.ndarray, prices: np.ndarray, calendar: TradingCalendar
) -> list[DayBars]:
    """Sample ticks onto the session's 5-minute grid.

    Each bin takes the last tick price at or before its end time; bins with
    no new tick carry the previous bin's price forward.  Leading bins before
    the day's first tick have no previous price and are dropped (recorded in
    dropped_leading).  Excluded dates are skipped entirely.  Sessions are
    runs of the sorted ticks, so one search over all ticks places every bin end.
    """
    if len(timestamps) != len(prices):
        raise ValueError("timestamps and prices must have equal length")
    ts = timestamps.astype("datetime64[s]", copy=False)
    if np.any(np.isnat(ts)):
        raise DataQualityError("tick timestamps must not be NaT")
    steps = np.diff(ts.view(np.int64))
    if np.any(steps < 0):
        bad = int(np.argmax(steps < 0))
        raise DataQualityError(f"tick timestamps must be non-decreasing (violated at index {bad + 1})")
    # sorted ticks have non-decreasing session dates, so a session starts where the date changes
    sessions = calendar.session_date(ts)
    starts = np.flatnonzero(np.r_[len(ts) > 0, sessions[1:] != sessions[:-1]])
    days, sizes = sessions[starts], np.diff(starts, append=len(ts))
    bin_ends = np.arange(1, calendar.bins_per_day + 1) * (BIN_MINUTES * 60)
    ends = calendar.session_open(days).view(np.int64)[:, None] + bin_ends
    # number of ticks at or before each bin end, counted from the session's first tick
    counts = np.searchsorted(ts.view(np.int64), ends, side="right")
    counts = np.clip(counts - starts[:, None], 0, sizes[:, None])
    # counts never fall along a row, so the empty leading bins are its zeros
    dropped = np.count_nonzero(counts == 0, axis=1)
    return [
        DayBars(date=day, prices=prices[start + row[first:] - 1], dropped_leading=first)
        for day, start, first, row, excluded in zip(
            days, starts, dropped.tolist(), counts, calendar.is_excluded(days)
        )
        if first < calendar.bins_per_day and not excluded
    ]


def realized_variance(days: list[DayBars]) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Daily realized variance: sum of squared 5-minute log price returns.

    Days with fewer than two bar prices cannot form a return; they are
    dropped and reported in the returned warnings list.

    Returns:
        (dates, rv, warnings)
    """
    dates = []
    values = []
    warnings: list[str] = []
    for day in days:
        if len(day.prices) < 2:
            warnings.append(f"{day.date}: fewer than 2 bar prices, day dropped")
            continue
        r = np.diff(np.log(day.prices))
        dates.append(day.date)
        values.append(float(np.sum(r * r)))
    return np.array(dates, dtype="datetime64[D]"), np.array(values, dtype=float), warnings


def annualize(dates: np.ndarray, rv: np.ndarray, label: str = "") -> VolatilitySeries:
    """Annualized percent volatility: 100 * sqrt(252 * rv)."""
    if np.any(rv < 0):
        bad = int(np.argmax(rv < 0))
        raise DataQualityError(f"negative realized variance at {dates[bad]}")
    out = VolatilitySeries(dates, 100.0 * np.sqrt(ANNUALIZATION_DAYS * rv), label)
    return out


def rv_pipeline(
    timestamps: np.ndarray,
    prices: np.ndarray,
    calendar: TradingCalendar,
    label: str = "",
) -> tuple[VolatilitySeries, VolatilitySeries, list[str]]:
    """Full tick-to-volatility pipeline.

    Returns (annualized volatility series, raw rv series, warnings).
    """
    return _rv_series([(timestamps, prices)], calendar, label)


def stream_rv(
    path: str, calendar: TradingCalendar, label: str = ""
) -> tuple[VolatilitySeries, VolatilitySeries, list[str]]:
    """`rv_pipeline(*load_ticks(path), calendar, label)`, reading the file block by block.

    Only the ticks of a block and of the session it leaves unfinished are
    held at once, so memory grows with the number of sessions, not of ticks.
    """
    return _rv_series(_session_runs(_tick_blocks(path), calendar), calendar, label)


def _session_runs(
    blocks: Iterable[tuple[np.ndarray, np.ndarray]], calendar: TradingCalendar
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Regroup sorted tick blocks into runs of whole sessions.

    A block's last session may go on in the next block, so its ticks wait
    for a later session, or the end of the file.
    """
    pending, pending_day = [], None
    for ts, px in blocks:
        days = calendar.session_date(ts)
        start = int(np.searchsorted(days, days[-1]))  # where the block's last session begins
        if start or days[-1] != pending_day:
            if pending or start:
                yield _joined([*pending, (ts[:start], px[:start])])
            pending = []
        pending.append((ts[start:], px[start:]))
        pending_day = days[-1]
    if pending:
        yield _joined(pending)


def _rv_series(
    runs: Iterable[tuple[np.ndarray, np.ndarray]], calendar: TradingCalendar, label: str
) -> tuple[VolatilitySeries, VolatilitySeries, list[str]]:
    """Sample and realize each run of whole sessions; only the (date, rv) pairs are kept."""
    parts = [realized_variance(sample_five_minute(ts, px, calendar)) for ts, px in runs]
    dates = np.concatenate([np.empty(0, "datetime64[D]"), *(d for d, _, _ in parts)])
    rv = np.concatenate([np.empty(0), *(v for _, v, _ in parts)])
    warnings = [w for _, _, day_warnings in parts for w in day_warnings]
    if len(dates) == 0:
        raise DataQualityError("no retained days with at least 2 bar prices")
    return annualize(dates, rv, label), VolatilitySeries(dates, rv, label), warnings


def store_rv(dates: np.ndarray, rv: np.ndarray, path: str) -> None:
    """Write a `date,rv` CSV."""
    write_csv(path, ("date", "rv"), zip(map(str, dates), map(format_value, rv)))
