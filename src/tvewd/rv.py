"""Tick-to-volatility pipeline: 5-minute sampling, realized variance, annualization.

Raw trade ticks are grouped into trading sessions (configurable day-boundary
cutoff for round-the-clock markets), sampled onto a fixed grid of 5-minute
bins by last-tick-at-or-before-bin-end, squared log returns are summed per
day, and the result is annualized to percentage volatility units.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .series import VolatilitySeries, format_value, write_csv

__all__ = [
    "DataQualityError",
    "TradingCalendar",
    "DayBars",
    "load_ticks",
    "sample_five_minute",
    "realized_variance",
    "annualize",
    "rv_pipeline",
]

BIN_MINUTES = 5
ANNUALIZATION_DAYS = 252

# Fixed year-end exclusion rules, applied on top of the configured list.
FIXED_EXCLUSION_RULES = ((12, 24), (12, 25), (12, 26), (12, 31), (1, 1), (1, 2))


class DataQualityError(ValueError):
    """Raised when input data violates a validity contract."""


def _parse_hhmm(text: str) -> int:
    parts = text.split(":")
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
        excluded_dates: explicit ISO dates to drop (e.g. federal holidays).
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
        self._cutoff_minutes = _parse_hhmm(self.session_cutoff)
        if self.bins_per_day < 1:
            raise ValueError("bins_per_day must be >= 1")
        if self.open_offset_minutes < 0:
            raise ValueError("open_offset_minutes must be >= 0")
        self._excluded = {np.datetime64(d, "D") for d in self.excluded_dates}

    def is_excluded(self, day: np.datetime64) -> bool:
        if day in self._excluded:
            return True
        ts = day.astype("datetime64[D]").astype(object)  # datetime.date
        return (ts.month, ts.day) in FIXED_EXCLUSION_RULES

    def session_date(self, timestamps: np.ndarray) -> np.ndarray:
        """Map tick timestamps to their session date."""
        ts = timestamps.astype("datetime64[s]")
        if self._cutoff_minutes == 0:
            return ts.astype("datetime64[D]")
        shifted = ts - np.timedelta64(self._cutoff_minutes * 60, "s")
        return shifted.astype("datetime64[D]") + np.timedelta64(1, "D")

    def session_open(self, day: np.datetime64) -> np.datetime64:
        """Wall-clock open of the session labelled `day`."""
        if self._cutoff_minutes == 0:
            base = day.astype("datetime64[s]")
        else:
            base = (day - np.timedelta64(1, "D")).astype("datetime64[s]") + np.timedelta64(
                self._cutoff_minutes * 60, "s"
            )
        return base + np.timedelta64(self.open_offset_minutes * 60, "s")


@dataclass
class DayBars:
    """5-minute bar prices for one retained session."""

    date: np.datetime64
    prices: np.ndarray
    dropped_leading: int = 0


def load_ticks(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Load a `timestamp,price` CSV.

    Returns timestamps (datetime64[s]) and prices.  Malformed rows,
    non-positive prices and decreasing timestamps raise DataQualityError
    naming the 1-based data row (ties in timestamps are allowed).
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise DataQualityError(f"{path}: empty file")
    header = tuple(h.strip() for h in rows[0])
    if header != ("timestamp", "price"):
        raise DataQualityError(f"{path}: expected header 'timestamp,price', got {','.join(header)!r}")
    stamps = []
    prices = []
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != 2:
            raise DataQualityError(f"{path}: row {i}: expected 2 fields, got {len(row)}")
        raw_ts, raw_p = row[0].strip(), row[1].strip()
        try:
            stamps.append(np.datetime64(raw_ts.replace(" ", "T"), "s"))
        except ValueError as exc:
            raise DataQualityError(f"{path}: row {i}: bad timestamp {raw_ts!r}") from exc
        try:
            p = float(raw_p)
        except ValueError as exc:
            raise DataQualityError(f"{path}: row {i}: bad price {raw_p!r}") from exc
        if not math.isfinite(p) or p <= 0:
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


def sample_five_minute(
    timestamps: np.ndarray, prices: np.ndarray, calendar: TradingCalendar
) -> list[DayBars]:
    """Sample ticks onto the session's 5-minute grid.

    Each bin takes the last tick price at or before its end time; bins with
    no new tick carry the previous bin's price forward.  Leading bins before
    the day's first tick have no previous price and are dropped (recorded in
    dropped_leading).  Excluded dates are skipped entirely.
    """
    if len(timestamps) != len(prices):
        raise ValueError("timestamps and prices must have equal length")
    if len(timestamps) == 0:
        return []
    ts = timestamps.astype("datetime64[s]")
    if len(ts) > 1 and np.any(np.diff(ts).astype(int) < 0):
        bad = int(np.argmax(np.diff(ts).astype(int) < 0))
        raise DataQualityError(
            f"tick timestamps must be non-decreasing (violated at index {bad + 1})"
        )
    sessions = calendar.session_date(ts)
    out: list[DayBars] = []
    for day in np.unique(sessions):
        if calendar.is_excluded(day):
            continue
        mask = sessions == day
        day_ts = ts[mask].astype("int64")
        day_px = prices[mask]
        open_s = calendar.session_open(day).astype("int64")
        ends = open_s + (np.arange(1, calendar.bins_per_day + 1)) * BIN_MINUTES * 60
        # index of last tick with timestamp <= bin end
        idx = np.searchsorted(day_ts, ends, side="right") - 1
        first = int(np.argmax(idx >= 0)) if np.any(idx >= 0) else calendar.bins_per_day
        kept = idx[first:]
        if len(kept) == 0:
            continue
        out.append(DayBars(date=day, prices=day_px[kept], dropped_leading=first))
    return out


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
    days = sample_five_minute(timestamps, prices, calendar)
    dates, rv, warnings = realized_variance(days)
    if len(dates) == 0:
        raise DataQualityError("no retained days with at least 2 bar prices")
    rv_series = VolatilitySeries(dates, rv, label)
    return annualize(dates, rv, label), rv_series, warnings


def store_rv(dates: np.ndarray, rv: np.ndarray, path: str) -> None:
    """Write a `date,rv` CSV."""
    write_csv(path, ("date", "rv"), zip(map(str, dates), map(format_value, rv)))
