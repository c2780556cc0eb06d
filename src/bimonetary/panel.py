"""Date-indexed economic data panel: ingestion, validation, transforms.

A :class:`Panel` holds a strictly increasing date index plus named real-valued
columns. Each column is one read-only float64 array in which NaN is the only
missing marker; :func:`load_csv` rejects ``nan`` and ``inf`` tokens, so a NaN
is never data. Windowed statistics can therefore tell "not enough data" apart
from zero. All operations are pure: they return new objects and never mutate
their inputs.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from datetime import date as Date
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

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


@dataclass(frozen=True, eq=False)
class Series:
    """A column aligned to a panel's dates: one float64 array, NaN for a
    missing slot.

    The constructor copies its input and turns the copy's write flag off, so
    panels can share a column without any holder being able to change it.
    """

    array: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.array, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("a series is one-dimensional")
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @staticmethod
    def of(values: Iterable[float | None]) -> "Series":
        """Series from plain numbers; ``None`` marks a missing slot."""
        return Series(list(values))

    @property
    def values(self) -> tuple[float | None, ...]:
        """Tuple view with ``None`` for each missing slot."""
        return tuple(None if math.isnan(v) else v for v in self.array.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return bool(np.array_equal(self.array, other.array, equal_nan=True))

    def __len__(self) -> int:
        return len(self.array)

    def __getitem__(self, i: int) -> float | None:
        v = float(self.array[i])
        return None if math.isnan(v) else v

    @property
    def is_complete(self) -> bool:
        return not np.isnan(self.array).any()

    def to_array(self) -> np.ndarray:
        """A writable copy of the column."""
        return self.array.copy()


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
        self._check_lengths()

    def _check_lengths(self) -> None:
        for name, series in self.columns.items():
            if len(series) != len(self.dates):
                raise ValueError(
                    f"column {name!r} has {len(series)} values for "
                    f"{len(self.dates)} dates"
                )

    @classmethod
    def _on_checked_dates(cls, dates, columns: dict[str, Series]) -> "Panel":
        """Panel on another panel's dates or a slice of them, increasing
        already: only the column lengths are checked."""
        panel = object.__new__(cls)
        object.__setattr__(panel, "dates", dates)
        object.__setattr__(panel, "columns", columns)
        panel._check_lengths()
        return panel

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
        return Panel._on_checked_dates(
            self.dates, {n: self.column(n) for n in names}
        )

    def with_columns(self, extra: Mapping[str, Series]) -> "Panel":
        merged = dict(self.columns)
        merged.update(extra)
        return Panel._on_checked_dates(self.dates, merged)

    def rows_between(self, start: Date | None, end: Date | None) -> slice:
        """Rows dated within ``[start, end]``; ``None`` leaves a side open."""
        lo = 0 if start is None else bisect_left(self.dates, start)
        hi = self.n_rows if end is None else bisect_right(self.dates, end)
        return slice(lo, hi)

    def _rows(self, rows: slice) -> "Panel":
        return Panel._on_checked_dates(
            self.dates[rows],
            {n: Series(s.array[rows]) for n, s in self.columns.items()},
        )

    def drop_leading_rows(self, k: int) -> "Panel":
        return self._rows(slice(k, None))

    def restrict_dates(self, start: Date | None, end: Date | None) -> "Panel":
        return self._rows(self.rows_between(start, end))

    def to_matrix(self, names: Sequence[str] | None = None) -> np.ndarray:
        """Stack columns into a (T, K) float matrix; missing becomes NaN."""
        names = list(self.columns) if names is None else list(names)
        return np.column_stack([self.column(n).array for n in names])

    def clean(self) -> "Panel":
        """Interpolate every interior gap; afterwards no column has missing
        values (endpoints must already be present)."""
        return Panel._on_checked_dates(
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


class CsvScan(NamedTuple):
    """One pass over a panel CSV, rows still in file order."""

    header: list[str]
    columns: list[str]       # the loaded columns, in matrix order
    dates: list[Date]
    matrix: np.ndarray       # (rows, len(columns)) float64, NaN for missing


def scan_csv(path, schema: Sequence[str] | None = None) -> CsvScan:
    """Parse a comma-separated UTF-8 file with a header row; a leading
    byte-order mark, which spreadsheet tools write, is dropped.

    Loads the ``schema`` columns, or every non-Date header column when
    ``schema`` is omitted; a schema column absent from the header raises
    :class:`MissingColumn`. Blank rows are skipped. Empty cells are missing
    values; a row too short for a loaded column, a cell that is not a finite
    dot-decimal number (``nan`` and ``inf`` included) and a bad date raise
    :class:`UnparseableValue`; a repeated date raises :class:`DuplicateDate`.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or DATE_COLUMN not in header:
            raise MissingColumn(DATE_COLUMN)
        columns = (
            [c for c in header if c != DATE_COLUMN] if schema is None else list(schema)
        )
        for name in columns:
            if name not in header:
                raise MissingColumn(name)
        date_idx = header.index(DATE_COLUMN)
        col_idx = [header.index(name) for name in columns]
        last = max([date_idx, *col_idx])

        dates: list[Date] = []
        seen: set[Date] = set()
        rows: list[list[float]] = []
        for row_no, record in enumerate(reader, start=2):
            if not record or all(cell.strip() == "" for cell in record):
                continue
            if len(record) <= last:
                raise UnparseableValue(row_no, header[len(record)], "<absent cell>")
            when = parse_panel_date(record[date_idx], row_no)
            if when in seen:
                raise DuplicateDate(when)
            seen.add(when)
            dates.append(when)
            cells: list[float] = []
            for name, j in zip(columns, col_idx):
                text = record[j].strip()
                if text == "":
                    cells.append(math.nan)
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
            rows.append(cells)

    matrix = np.array(rows, dtype=np.float64).reshape(len(rows), len(columns))
    return CsvScan(header, columns, dates, matrix)


def load_csv(path, schema: Sequence[str] | None = None) -> Panel:
    """The file as :func:`scan_csv` reads it, as a Panel with its rows sorted
    by date."""
    scan = scan_csv(path, schema)
    order = sorted(range(len(scan.dates)), key=scan.dates.__getitem__)
    matrix = scan.matrix[order]
    return Panel(
        tuple(scan.dates[i] for i in order),
        {name: Series(matrix[:, j]) for j, name in enumerate(scan.columns)},
    )


def format_cell(value: float) -> str:
    """CSV text of one number: empty for NaN, else the round-tripping repr."""
    if math.isnan(value):
        return ""
    # plain-float repr round-trips exactly and is stable across numpy scalars
    return repr(float(value))


def format_column(values: np.ndarray) -> list[str]:
    """:func:`format_cell` of every entry, with one NaN mask for the column."""
    text = list(map(repr, values.tolist()))
    for i in np.flatnonzero(np.isnan(values)).tolist():
        text[i] = ""
    return text


def quote(text: str) -> str:
    """One CSV cell under ``csv.QUOTE_MINIMAL``: a cell holding a comma, a
    double quote or a line break is wrapped in quotes, its quotes doubled."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def text_rows(*columns: Iterable) -> list[str]:
    """CSV records of equal-length columns, without line ends. A float array
    goes through :func:`format_column`; any other column's items through
    ``str``, so dates come out in ISO form and names must be :func:`quote`d."""
    cells = [
        format_column(c)
        if isinstance(c, np.ndarray) and c.dtype.kind == "f"
        else map(str, c)
        for c in columns
    ]
    rows = list(map(",".join, zip(*cells, strict=True)))
    # csv.writer quotes the only cell of a one-cell record when it is empty
    return [row or '""' for row in rows] if len(cells) == 1 else rows


def write_rows(path, header: Sequence[str], rows: Sequence[str]) -> None:
    """The one CSV writer: the quoted header, then the :func:`text_rows`
    records, each line ended by CR LF, in UTF-8; the bytes equal what
    ``csv.writer`` writes for the same cells. The header is not empty."""
    head = ",".join(map(quote, header)) or '""'
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join([head, *rows, ""]))


def write_csv(panel: Panel, path) -> None:
    """Inverse of :func:`load_csv` for cleaned panels: full-precision floats,
    empty cell for missing."""
    header = [DATE_COLUMN, *panel.variables]
    columns = (s.array for s in panel.columns.values())
    write_rows(path, header, text_rows(panel.dates, *columns))


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
    return Series(arr)


def difference(series: Series, order: int = 1) -> Series:
    """Apply the first difference ``order`` times; length shrinks by order."""
    if order < 1:
        raise ValueError("order must be a positive integer")
    if len(series) <= order:
        raise SeriesTooShort(
            f"need more than {order} observations, have {len(series)}"
        )
    return Series(np.diff(series.array, n=order))


def _trailing_offsets(n: int, window: int) -> Iterator[tuple[slice, slice]]:
    """For each offset k of a trailing window, the slot slice ``[k:]`` and
    the aligned element slice ``[:n-k]``: slot t meets element t - k."""
    for k in range(min(window, n)):
        yield slice(k, None), slice(None, n - k)


def rolling_mean(series: Series, window: int, min_periods: int) -> Series:
    """Trailing-window mean.

    Index t averages the last ``min(window, t+1)`` values; the slot is
    missing until at least ``min_periods`` of them are present.
    """
    if min_periods > window:
        raise ValueError("min_periods must not exceed window")
    if window < 1 or min_periods < 1:
        raise ValueError("window and min_periods must be positive")
    arr = series.array
    present = ~np.isnan(arr)
    values = np.where(present, arr, 0.0)
    total = np.zeros(len(arr))
    count = np.zeros(len(arr))
    for slots, elements in _trailing_offsets(len(arr), window):
        total[slots] += values[elements]
        count[slots] += present[elements]
    out = np.full(len(arr), np.nan)
    ok = count >= min_periods
    out[ok] = total[ok] / count[ok]
    return Series(out)


def rolling_corr(x: Series, y: Series, window: int, min_periods: int) -> Series:
    """Trailing-window Pearson correlation of two aligned series.

    Uses the sample (n-1) covariance in numerator and denominator so the
    factor cancels. A window with fewer than ``min_periods`` complete pairs,
    or with either side constant (its smallest present value equals its
    largest), yields a missing slot. Each window's means come first, then
    the sums of centred products, as in a per-window two-pass computation.
    """
    if len(x) != len(y):
        raise ValueError("series lengths differ")
    if min_periods > window:
        raise ValueError("min_periods must not exceed window")
    T = len(x)
    ok = ~(np.isnan(x.array) | np.isnan(y.array))
    # complete pairs only: NaN where either side is missing
    px = np.where(ok, x.array, np.nan)
    py = np.where(ok, y.array, np.nan)
    vx, vy = np.where(ok, x.array, 0.0), np.where(ok, y.array, 0.0)
    n, sx, sy = np.zeros(T), np.zeros(T), np.zeros(T)
    lo_x, hi_x, lo_y, hi_y = (np.full(T, np.nan) for _ in range(4))
    for slots, elements in _trailing_offsets(T, window):
        n[slots] += ok[elements]
        sx[slots] += vx[elements]
        sy[slots] += vy[elements]
        np.fmin(lo_x[slots], px[elements], out=lo_x[slots])
        np.fmax(hi_x[slots], px[elements], out=hi_x[slots])
        np.fmin(lo_y[slots], py[elements], out=lo_y[slots])
        np.fmax(hi_y[slots], py[elements], out=hi_y[slots])
    valid = (n >= max(min_periods, 2)) & (lo_x < hi_x) & (lo_y < hi_y)
    mx, my = sx / np.maximum(n, 1.0), sy / np.maximum(n, 1.0)
    sxx, syy, sxy = np.zeros(T), np.zeros(T), np.zeros(T)
    for slots, elements in _trailing_offsets(T, window):
        dx = np.where(ok[elements], vx[elements] - mx[slots], 0.0)
        dy = np.where(ok[elements], vy[elements] - my[slots], 0.0)
        sxx[slots] += dx * dx
        syy[slots] += dy * dy
        sxy[slots] += dx * dy
    out = np.full(T, np.nan)
    out[valid] = sxy[valid] / np.sqrt(sxx[valid] * syy[valid])
    return Series(out)


def minmax_rescale(series: Series, target: Series) -> Series:
    """Affinely map the source range onto the target range.

    ``(s - min s) / (max s - min s) * (max t - min t) + min t``; the result
    attains exactly ``min(target)`` and ``max(target)`` at the source's
    argmin/argmax. Missing source slots stay missing.
    """
    src = series.array[~np.isnan(series.array)]
    tgt = target.array[~np.isnan(target.array)]
    if not tgt.size:
        raise ValueError("target series has no present values")
    s_min, s_max = src.min(), src.max()
    if s_max <= s_min:
        raise DegenerateRange("source series is constant")
    t_min, t_max = tgt.min(), tgt.max()
    # convex-combination form: u=0 and u=1 hit the target endpoints exactly;
    # the clip stops an interior u rounding past them (constant targets)
    u = (series.array - s_min) / (s_max - s_min)
    return Series(np.clip(u * t_max + (1.0 - u) * t_min, t_min, t_max))
