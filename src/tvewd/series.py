"""Daily volatility series container and CSV round-trip I/O.

The series is the common currency of the package: the realized-volatility
pipeline produces one, the estimators consume one, and the evaluation
harness slices one into rolling windows.  Values are stored as float64 and
dates as numpy datetime64[D]; dates must be strictly increasing.
"""

from __future__ import annotations

import csv
import numbers
import os
import tempfile
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "VolatilitySeries",
    "load_series",
    "store_series",
    "format_value",
    "atomic_write",
    "write_csv",
]

SERIES_COLUMNS = ("date", "value")


def _check_integer(value, name: str) -> None:
    """Refuse a count or order that is not an integer: a bool, a float (even
    an integral one) or a string.  NumPy integers pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def format_value(x: float) -> str:
    """Render a float with full round-trip precision.

    Python's repr emits the shortest decimal string that parses back to the
    exact same double, so load(store(s)) reproduces every value bit for bit
    and no value is ever written with less precision than it carries.
    """
    return repr(float(x))


def atomic_write(path: str, text: str | Iterable[str]) -> None:
    """Write text, or an iterable of text blocks, to path atomically (temp file + rename).

    The whole file is written before this returns.  If the blocks raise
    partway, the temporary file is removed and any previous file at path
    is left as it was.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".csv")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


CSV_BLOCK_LINES = 4096


def write_csv(path: str, header: Sequence[str], rows: Iterable[Iterable[str]]) -> None:
    """Write a CSV atomically: the header line, then one line per row.

    Cells are already formatted text without commas or line breaks; they
    are joined by commas and every line, the last included, ends in LF.
    Lines are joined and written in blocks of CSV_BLOCK_LINES, so memory
    stays bounded however many rows there are.
    """
    lines = map(",".join, chain([header], rows))
    blocks = iter(lambda: list(islice(lines, CSV_BLOCK_LINES)), [])
    atomic_write(path, ("\n".join(block) + "\n" for block in blocks))


@dataclass
class VolatilitySeries:
    """A dated daily volatility (or generic scalar) series.

    Attributes:
        dates: datetime64[D] array, strictly increasing.
        values: float64 array, same length as dates, all finite.
        label: free-form identifier (e.g. contract symbol).
    """

    dates: np.ndarray
    values: np.ndarray
    label: str = ""
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.dates = np.asarray(self.dates, dtype="datetime64[D]")
        self.values = np.asarray(self.values, dtype=float)
        if self.dates.ndim != 1 or self.values.ndim != 1:
            raise ValueError("dates and values must be one-dimensional")
        if len(self.values) < 1:
            raise ValueError("series must hold at least one observation")
        if len(self.dates) != len(self.values):
            raise ValueError(
                f"length mismatch: {len(self.dates)} dates vs {len(self.values)} values"
            )
        if len(self.dates) > 1 and not np.all(np.diff(self.dates).astype(int) > 0):
            bad = int(np.argmin(np.diff(self.dates).astype(int)))
            raise ValueError(
                f"dates must be strictly increasing (violated at row {bad + 1}: "
                f"{self.dates[bad]} -> {self.dates[bad + 1]})"
            )
        if not np.all(np.isfinite(self.values)):
            bad = int(np.argmin(np.isfinite(self.values)))
            raise ValueError(f"non-finite value at row {bad} ({self.dates[bad]})")
        # Negative values are legal (simulated/centered series); real
        # volatility inputs are non-negative by construction, so flag only.
        if len(self.values) and float(np.min(self.values)) < 0:
            self.warnings.append("series contains negative values")

    def __len__(self) -> int:
        return len(self.values)

    def slice(self, start: int, stop: int) -> "VolatilitySeries":
        """Positional sub-series [start, stop)."""
        return VolatilitySeries(self.dates[start:stop], self.values[start:stop], self.label)


def _parse_rows(path: str, expected_header: tuple[str, ...]) -> list[list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = tuple(h.strip() for h in rows[0])
    if header != expected_header:
        raise ValueError(
            f"{path}: expected header {','.join(expected_header)!r}, got {','.join(header)!r}"
        )
    return rows[1:]


def load_series(path: str, label: str | None = None) -> VolatilitySeries:
    """Load a `date,value` CSV into a VolatilitySeries.

    Malformed rows (bad date, non-numeric value, wrong arity) raise
    ValueError naming the 1-based data row number.
    """
    rows = _parse_rows(path, SERIES_COLUMNS)
    dates: list[str] = []
    values: list[float] = []
    for i, row in enumerate(rows, start=1):
        if len(row) != 2:
            raise ValueError(f"{path}: row {i}: expected 2 fields, got {len(row)}")
        d, v = row[0].strip(), row[1].strip()
        try:
            np.datetime64(d, "D")
        except ValueError as exc:
            raise ValueError(f"{path}: row {i}: bad date {d!r}") from exc
        try:
            values.append(float(v))
        except ValueError as exc:
            raise ValueError(f"{path}: row {i}: bad value {v!r}") from exc
        dates.append(d)
    name = label if label is not None else os.path.splitext(os.path.basename(path))[0]
    return VolatilitySeries(np.array(dates, dtype="datetime64[D]"), np.array(values), name)


def store_series(series: VolatilitySeries, path: str) -> None:
    """Write a VolatilitySeries as a `date,value` CSV (atomic replace)."""
    rows = zip(series.dates.astype(str), map(format_value, series.values))
    write_csv(path, SERIES_COLUMNS, rows)


def business_dates(start: str, n: int) -> np.ndarray:
    """n consecutive weekday dates from start (used for simulated series)."""
    offsets = np.arange(n)
    return np.busday_offset(np.datetime64(start, "D"), offsets, roll="forward")
