"""Date-indexed economic data panel: ingestion, validation, transforms.

A :class:`Panel` holds a strictly increasing date index plus named real-valued
columns. Missing values are explicit ``None`` slots, never sentinel numbers,
so windowed statistics can tell "not enough data" apart from zero. All
operations are pure: they return new objects and never mutate their inputs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import date as Date
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateRange,
    DuplicateDate,
    LeadingOrTrailingGap,
    MissingColumn,
    SeriesTooShort,
    UnknownVariable,
    UnparseableValue,
)

#: Canonical column names, byte-for-byte (case and spaces significant).
CANONICAL_VARIABLES: tuple[str, ...] = (
    "Usa Pi Exp",
    "Long Term Usd Rate",
    "Short Term Usd Rate",
    "M2 Usd",
    "Ipc Usa",
    "Historical Ars Usd",
    "Argentina Net Lending Borrowing",
    "Ipc Argentina",
    "Pi Exp",
    "Long Interest",
    "Short Interest",
    "M2",
    "Gdp_argentina",
    "Gdp_usa",
    "E",
    "Embi+ARG",
)

DATE_COLUMN = "Date"

Value = float | None


@dataclass(frozen=True)
class Series:
    """A column of optional floats aligned to a panel's dates."""

    values: tuple[Value, ...]

    @staticmethod
    def of(values: Iterable[Value]) -> "Series":
        return Series(tuple(None if v is None else float(v) for v in values))

    @staticmethod
    def from_array(arr: np.ndarray) -> "Series":
        """NaN entries become missing slots."""
        return Series(tuple(None if math.isnan(v) else float(v) for v in arr))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Value]:
        return iter(self.values)

    def __getitem__(self, i: int) -> Value:
        return self.values[i]

    @property
    def is_complete(self) -> bool:
        return all(v is not None for v in self.values)

    def to_array(self) -> np.ndarray:
        """Missing slots become NaN (computation form only; NaN never leaks
        back out except through :meth:`from_array`)."""
        return np.array(
            [math.nan if v is None else v for v in self.values], dtype=float
        )


def _check_dates(dates: Sequence[Date]) -> None:
    for prev, cur in zip(dates, dates[1:]):
        if cur == prev:
            raise DuplicateDate(cur)
        if cur < prev:
            raise ValueError(f"dates not increasing: {prev} then {cur}")


@dataclass(frozen=True)
class Panel:
    """Immutable table of named series over a strictly increasing date index."""

    dates: tuple[Date, ...]
    columns: dict[str, Series] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_dates(self.dates)
        for name, series in self.columns.items():
            if len(series) != len(self.dates):
                raise ValueError(
                    f"column {name!r} has {len(series)} values for "
                    f"{len(self.dates)} dates"
                )

    @property
    def n_rows(self) -> int:
        return len(self.dates)

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(self.columns)

    def column(self, name: str) -> Series:
        try:
            return self.columns[name]
        except KeyError:
            raise UnknownVariable(name) from None

    def has_column(self, name: str) -> bool:
        return name in self.columns

    def select(self, names: Sequence[str]) -> "Panel":
        return Panel(self.dates, {n: self.column(n) for n in names})

    def with_columns(self, extra: Mapping[str, Series]) -> "Panel":
        merged = dict(self.columns)
        merged.update(extra)
        return Panel(self.dates, merged)

    def drop_leading_rows(self, k: int) -> "Panel":
        return Panel(
            self.dates[k:],
            {n: Series(s.values[k:]) for n, s in self.columns.items()},
        )

    def restrict_dates(self, start: Date | None, end: Date | None) -> "Panel":
        keep = [
            i
            for i, d in enumerate(self.dates)
            if (start is None or d >= start) and (end is None or d <= end)
        ]
        return Panel(
            tuple(self.dates[i] for i in keep),
            {
                n: Series(tuple(s.values[i] for i in keep))
                for n, s in self.columns.items()
            },
        )

    def to_matrix(self, names: Sequence[str] | None = None) -> np.ndarray:
        """Stack columns into a (T, K) float matrix; missing becomes NaN."""
        names = list(self.columns) if names is None else list(names)
        return np.column_stack([self.column(n).to_array() for n in names])

    def clean(self) -> "Panel":
        """Interpolate every interior gap; afterwards no column has missing
        values (endpoints must already be present)."""
        return Panel(
            self.dates,
            {n: linear_interpolate(s) for n, s in self.columns.items()},
        )


def parse_panel_date(text: str, row: int) -> Date:
    """ISO date, tolerating a time-of-day suffix (``2018-01-01 00:00:00``)."""
    head = text.strip().replace("T", " ").split(" ")[0]
    try:
        return Date.fromisoformat(head)
    except ValueError:
        raise UnparseableValue(row, DATE_COLUMN, text) from None


def load_csv(path, schema: Sequence[str] | None = None) -> Panel:
    """Read a comma-separated UTF-8 file with a header row into a Panel.

    Parameters
    ----------
    path : path-like
        File with a ``Date`` column plus one column per variable. Empty
        cells are missing values; decimals use a dot.
    schema : sequence of str, optional
        Columns that must be present; each missing one raises
        :class:`MissingColumn`. When omitted, every non-Date column in the
        header is loaded.

    Rows are sorted by date; duplicate dates are an error.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumn(DATE_COLUMN) from None
        if DATE_COLUMN not in header:
            raise MissingColumn(DATE_COLUMN)
        if schema is None:
            schema = [c for c in header if c != DATE_COLUMN]
        for name in schema:
            if name not in header:
                raise MissingColumn(name)
        date_idx = header.index(DATE_COLUMN)
        col_idx = {name: header.index(name) for name in schema}

        rows: list[tuple[Date, list[Value]]] = []
        for row_no, record in enumerate(reader, start=2):
            if not record or all(cell.strip() == "" for cell in record):
                continue
            if len(record) <= max(date_idx, *col_idx.values(), 0):
                raise UnparseableValue(row_no, header[len(record)], "<absent cell>")
            when = parse_panel_date(record[date_idx], row_no)
            cells: list[Value] = []
            for name in schema:
                text = record[col_idx[name]].strip()
                if text == "":
                    cells.append(None)
                    continue
                try:
                    value = float(text)
                except ValueError:
                    raise UnparseableValue(row_no, name, text) from None
                # the empty cell is the only missing representation; nan/inf
                # tokens are data corruption, not values
                if not math.isfinite(value):
                    raise UnparseableValue(row_no, name, text)
                cells.append(value)
            rows.append((when, cells))

    rows.sort(key=lambda item: item[0])
    dates = tuple(when for when, _ in rows)
    _check_dates(dates)
    columns = {
        name: Series(tuple(cells[j] for _, cells in rows))
        for j, name in enumerate(schema)
    }
    return Panel(dates, columns)


def format_cell(value: Value) -> str:
    if value is None:
        return ""
    # plain-float repr round-trips exactly and is stable across numpy scalars
    return repr(float(value))


def write_csv(panel: Panel, path) -> None:
    """Inverse of :func:`load_csv` for cleaned panels: full-precision floats,
    empty cell for missing."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([DATE_COLUMN, *panel.variables])
        for i, when in enumerate(panel.dates):
            writer.writerow(
                [when.isoformat()]
                + [format_cell(panel.columns[n][i]) for n in panel.variables]
            )


# -- series transforms --------------------------------------------------------


def linear_interpolate(series: Series) -> Series:
    """Fill interior gaps with the straight line between nearest neighbors.

    The first and last entries must be present; a leading or trailing gap
    raises :class:`LeadingOrTrailingGap`.
    """
    arr = series.to_array()
    gaps = np.isnan(arr)
    if not gaps.any():
        return series
    if gaps[0] or gaps[-1]:
        raise LeadingOrTrailingGap("first and last entries must be present")
    known = np.flatnonzero(~gaps)
    arr[gaps] = np.interp(np.flatnonzero(gaps), known, arr[known])
    return Series.from_array(arr)


def difference(series: Series, order: int = 1) -> Series:
    """Apply the first difference ``order`` times; length shrinks by order."""
    if order < 1:
        raise ValueError("order must be a positive integer")
    if len(series) <= order:
        raise SeriesTooShort(
            f"need more than {order} observations, have {len(series)}"
        )
    values = list(series.values)
    for _ in range(order):
        values = [
            None if (a is None or b is None) else b - a
            for a, b in zip(values, values[1:])
        ]
    return Series(tuple(values))


def rolling_mean(series: Series, window: int, min_periods: int) -> Series:
    """Trailing-window mean.

    Index t averages the last ``min(window, t+1)`` values; the slot is
    missing until at least ``min_periods`` of them are present.
    """
    if min_periods > window:
        raise ValueError("min_periods must not exceed window")
    if window < 1 or min_periods < 1:
        raise ValueError("window and min_periods must be positive")
    arr = series.to_array()
    out = np.full(len(arr), np.nan)
    for t in range(len(arr)):
        chunk = arr[max(0, t - window + 1) : t + 1]
        present = chunk[~np.isnan(chunk)]
        if len(present) >= min_periods:
            out[t] = present.mean()
    return Series.from_array(out)


def rolling_corr(x: Series, y: Series, window: int, min_periods: int) -> Series:
    """Trailing-window Pearson correlation of two aligned series.

    Uses the sample (n-1) covariance in numerator and denominator so the
    factor cancels. A window with fewer than ``min_periods`` complete pairs,
    or with either side constant, yields a missing slot.
    """
    if len(x) != len(y):
        raise ValueError("series lengths differ")
    if min_periods > window:
        raise ValueError("min_periods must not exceed window")
    ax, ay = x.to_array(), y.to_array()
    out = np.full(len(ax), np.nan)
    for t in range(len(ax)):
        lo = max(0, t - window + 1)
        cx, cy = ax[lo : t + 1], ay[lo : t + 1]
        ok = ~(np.isnan(cx) | np.isnan(cy))
        n = int(ok.sum())
        if n < min_periods or n < 2:
            continue
        vx, vy = cx[ok], cy[ok]
        dx, dy = vx - vx.mean(), vy - vy.mean()
        sxx, syy = float(dx @ dx), float(dy @ dy)
        if sxx == 0.0 or syy == 0.0:
            continue
        out[t] = float(dx @ dy) / math.sqrt(sxx * syy)
    return Series.from_array(out)


def minmax_rescale(series: Series, target: Series) -> Series:
    """Affinely map the source range onto the target range.

    ``(s - min s) / (max s - min s) * (max t - min t) + min t``; the result
    attains exactly ``min(target)`` and ``max(target)`` at the source's
    argmin/argmax. Missing source slots stay missing.
    """
    src = [v for v in series.values if v is not None]
    tgt = [v for v in target.values if v is not None]
    if not tgt:
        raise ValueError("target series has no present values")
    s_min, s_max = min(src), max(src)
    if s_max <= s_min:
        raise DegenerateRange("source series is constant")
    t_min, t_max = min(tgt), max(tgt)

    def remap(v: Value) -> Value:
        if v is None:
            return None
        # convex-combination form: u=0 and u=1 hit the target endpoints exactly
        u = (v - s_min) / (s_max - s_min)
        return u * t_max + (1.0 - u) * t_min

    return Series(tuple(remap(v) for v in series.values))
