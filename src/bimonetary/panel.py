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
import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from datetime import date as Date
from datetime import time as Time
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from ._csvbytes import PAD, float_cells
from .errors import (
    DegenerateRange,
    DuplicateColumn,
    DuplicateDate,
    LeadingOrTrailingGap,
    MalformedRecord,
    MissingColumn,
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

    The constructor copies its input (a ``None`` in a list reads as NaN) and
    turns the copy's write flag off, so panels can share a column without
    any holder being able to change it.
    """

    array: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.array, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("a series is one-dimensional")
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

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
        """Panel on dates that increase already (a panel's, a slice of them,
        a scan's sorted ones): only the column lengths are checked."""
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

    def with_columns(self, extra: Mapping[str, Series]) -> "Panel":
        merged = dict(self.columns)
        merged.update(extra)
        return Panel._on_checked_dates(self.dates, merged)

    def rows_between(self, start: Date | None, end: Date | None) -> slice:
        """Rows dated within ``[start, end]``; ``None`` leaves a side open."""
        lo = 0 if start is None else bisect_left(self.dates, start)
        hi = self.n_rows if end is None else bisect_right(self.dates, end)
        return slice(lo, hi)

    def restrict_dates(self, start: Date | None, end: Date | None) -> "Panel":
        rows = self.rows_between(start, end)
        return Panel._on_checked_dates(
            self.dates[rows],
            {n: Series(s.array[rows]) for n, s in self.columns.items()},
        )

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


def parse_iso_date(text: str) -> Date:
    """The date of an exact ``YYYY-MM-DD``, else a ``ValueError``."""
    if len(text) != 10 or text[4] + text[7] != "--":  # 3.11 reads 20180101 too
        raise ValueError(text)
    return Date.fromisoformat(text)


def parse_panel_date(text: str, row: int) -> Date:
    """ISO ``YYYY-MM-DD`` date, tolerating one space or ``T`` followed by a
    time of day without a UTC offset that ``datetime.time.fromisoformat``
    reads (``2018-01-01 00:00:00``); any other form or suffix raises
    :class:`UnparseableValue`."""
    stripped = text.strip()
    day = stripped.replace("T", " ").split(" ")[0]
    try:
        when = parse_iso_date(day)
        if day != stripped:
            clock = stripped[len(day) + 1 :]
            # fromisoformat also reads a leading "T" and a UTC offset, which
            # would pass a doubled separator and drop a zone without
            # shifting the day
            if not (clock[:1].isdigit() and Time.fromisoformat(clock).tzinfo is None):
                raise ValueError(clock)
        return when
    except ValueError:
        raise UnparseableValue(row, DATE_COLUMN, text) from None


class CsvScan(NamedTuple):
    """One pass over a panel CSV, rows still in file order."""

    header: list[str]
    columns: list[str]       # the loaded columns, in matrix order
    dates: list[Date]
    matrix: np.ndarray       # (rows, len(columns)) float64, NaN for missing


def _resolve_header(
    header: list[str] | None, schema: Sequence[str] | None
) -> tuple[list[str], int, list[int]]:
    """The loaded columns and the header positions of ``Date`` and of each
    loaded column; raises :class:`MissingColumn` for an absent one and
    :class:`DuplicateColumn` for one the header names twice."""
    if header is None or DATE_COLUMN not in header:
        raise MissingColumn(DATE_COLUMN)
    columns = (
        [c for c in header if c != DATE_COLUMN] if schema is None else list(schema)
    )
    for name in columns:
        if name not in header:
            raise MissingColumn(name)
    for name in [DATE_COLUMN, *columns]:
        if header.count(name) > 1:
            raise DuplicateColumn(name)
    return columns, header.index(DATE_COLUMN), [header.index(c) for c in columns]


def _scan_plain(text: str, schema: Sequence[str] | None) -> CsvScan | None:
    """The file's text read by one ``np.loadtxt`` call, or None for the
    record loop to read it: for a double quote, which only the ``csv``
    module reads, a CR in the header, a line over the ``csv`` field limit,
    no data line, a line of another width than the header, a cell numpy
    rejects (an empty read cell among them; an empty unread cell is read),
    a non-finite value, or a date not exactly ``YYYY-MM-DD`` or repeated."""
    if '"' in text:
        return None
    lines = text.split("\n")
    head = lines[0].removesuffix("\r")
    if "\r" in head or max(map(len, lines)) > csv.field_size_limit():
        return None
    header = head.split(",")
    columns, date_idx, col_idx = _resolve_header(header, schema)
    # with no data line left np.loadtxt would warn that the input is empty
    body = [line for line in lines[1:] if line not in ("", "\r")]
    if not body:
        return None
    # one byte past a date shows a longer cell; U1 takes any unread text
    fields = [(f"f{j}", "f8" if j in col_idx else "U1") for j in range(len(header))]
    fields[date_idx] = (f"f{date_idx}", "S11")
    try:
        table = np.loadtxt(body, fields, comments=None, delimiter=",", ndmin=1)
        cells = table[f"f{date_idx}"]
        # numpy warns on a time zone, which takes 11 bytes at least
        if (np.char.str_len(cells) != 10).any():
            return None
        days = cells.astype("datetime64[D]")
    except ValueError:
        return None
    # the empty block keeps a header of Date alone at (rows, 0)
    matrix = np.column_stack(
        [np.empty((len(table), 0)), *(table[f"f{j}"] for j in col_idx)]
    )
    dates = days.tolist()  # NaT comes as None, a year outside 1..9999 as an int
    if (
        set(map(type, dates)) != {Date}  # first: formatting those can fail
        or (days.astype("S11") != cells).any()
        or (np.diff(np.sort(days)) == np.timedelta64(0)).any()
        or not np.isfinite(matrix).all()
    ):
        return None
    return CsvScan(header, columns, dates, matrix)


def _records(reader) -> Iterator[tuple[int, list[str]]]:
    """(row number, cells) of each record of a ``csv.reader``, the header
    being row 1; a record the reader cannot split raises
    :class:`MalformedRecord` naming its row."""
    for row_no in itertools.count(1):
        try:
            record = next(reader)
        except StopIteration:
            return
        except csv.Error as error:
            raise MalformedRecord(row_no, str(error)) from None
        yield row_no, record


def _scan_records(lines: Iterable[str], schema: Sequence[str] | None) -> CsvScan:
    """The record loop: the file's lines, ends kept, read by ``csv.reader``
    one record at a time, the only reader that names a failing row, reads
    quoted cells and turns an empty cell into NaN."""
    records = _records(csv.reader(lines))
    _, header = next(records, (1, None))
    columns, date_idx, col_idx = _resolve_header(header, schema)
    last = max([date_idx, *col_idx])

    dates: list[Date] = []
    seen: set[Date] = set()
    rows: list[list[float]] = []
    for row_no, record in records:
        if not record or all(cell.strip() == "" for cell in record):
            continue
        if len(record) <= last:
            raise UnparseableValue(row_no, header[len(record)], "<absent cell>")
        if any(cell.strip() for cell in record[len(header) :]):
            raise MalformedRecord(row_no, f"more than the header's {len(header)} cells")
        when = parse_panel_date(record[date_idx], row_no)
        if when in seen:
            raise DuplicateDate(when)
        seen.add(when)
        dates.append(when)
        cells: list[float] = []
        for name, j in zip(columns, col_idx):
            token = record[j].strip()
            if token == "":
                cells.append(math.nan)
                continue
            try:
                value = float(token)
            except ValueError:
                value = math.nan
            # the empty cell is the only missing marker; nan/inf tokens are
            # corruption, as are the 1_000 and non-ASCII digits float() reads
            if not (math.isfinite(value) and token.isascii() and "_" not in token):
                raise UnparseableValue(row_no, name, token)
            cells.append(value)
        rows.append(cells)

    matrix = np.array(rows, dtype=np.float64).reshape(len(rows), len(columns))
    return CsvScan(header, columns, dates, matrix)


def scan_csv(path, schema: Sequence[str] | None = None) -> CsvScan:
    """Parse a comma-separated UTF-8 file with a header row; a leading
    byte-order mark, which spreadsheet tools write, is dropped.

    Loads the ``schema`` columns, or every non-Date header column when
    ``schema`` is omitted; a schema column absent from the header raises
    :class:`MissingColumn`, and ``Date`` or a loaded column named twice
    :class:`DuplicateColumn`. Blank rows are skipped. Empty cells are missing
    values; a row too short for a loaded column, a cell that is not a finite
    dot-decimal number (``nan`` and ``inf`` included) and a bad date raise
    :class:`UnparseableValue`; a repeated date raises :class:`DuplicateDate`;
    a record the ``csv`` module cannot split or with a non-empty cell past
    the header raises :class:`MalformedRecord`.

    A file that :func:`_scan_plain` takes is read by one call of numpy's C
    reader; any other by the record loop, so both give the same results and
    errors.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        scan = _scan_plain(fh.read(), schema)
        if scan is None:
            # the text is gone by now: the record loop streams the file
            # again rather than hold the text beside its rows
            fh.seek(0)
            scan = _scan_records(fh, schema)
    return scan


def load_csv(path, schema: Sequence[str] | None = None) -> Panel:
    """The file as :func:`scan_csv` reads it, as a Panel with its rows sorted
    by date."""
    scan = scan_csv(path, schema)
    order = sorted(range(len(scan.dates)), key=scan.dates.__getitem__)
    matrix = scan.matrix[order]
    return Panel._on_checked_dates(
        tuple(scan.dates[i] for i in order),
        {name: Series(matrix[:, j]) for j, name in enumerate(scan.columns)},
    )


def quote(text: str) -> str:
    """One CSV cell under ``csv.QUOTE_MINIMAL``: a cell holding a comma, a
    double quote or a line break is wrapped in quotes, its quotes doubled."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _text_cells(column) -> np.ndarray:
    """Padded UTF-8 rows of each item's :func:`quote`d ``str``, or the records."""
    if isinstance(column, np.ndarray) and column.ndim == 2:
        return column[:, :-2]
    text = [(quote(x) if isinstance(x, str) else str(x)).encode() for x in column]
    size = np.fromiter(map(len, text), np.intp, len(text))
    keep = np.arange(size.max(initial=0)) < size[:, None]
    cells = np.full(keep.shape, PAD, np.uint8)
    cells[keep] = np.frombuffer(b"".join(text), np.uint8)
    return cells


def text_rows(*columns: Iterable) -> np.ndarray:
    """CSV records of equal-length columns, one per row of a byte matrix
    padded with ``PAD``, each ended by CR LF, over a ``bytearray`` (its
    ``base``). A float array's cells are each value's ``repr``, empty for
    NaN, made for the whole column at once; the records of an earlier call are a
    column of their own; any other column's items go through ``str``, so
    dates come out in ISO form, and a ``str`` item is :func:`quote`d."""
    cells = [float_cells(c) if _is_float(c) else _text_cells(c) for c in columns]
    if len({len(c) for c in cells}) > 1:
        raise ValueError("columns differ in length")
    n, width = len(cells[0]), max(sum(c.shape[1] + 1 for c in cells) - 1, 2) + 2
    table, at = np.ndarray((n, width), np.uint8, bytearray(b",") * (n * width)), 0
    for c in cells:  # a comma stays after each cell
        table[:, at : at + c.shape[1]] = c
        at += c.shape[1] + 1
    table[:, at - 1 : -2] = PAD
    table[:, -2:] = np.frombuffer(b"\r\n", np.uint8)
    if len(cells) == 1:  # as csv.writer does, an empty lone cell is quoted
        table[(table[:, :-2] == PAD).all(axis=1), :2] = ord('"')
    return table


def _is_float(column) -> bool:
    return isinstance(column, np.ndarray) and column.dtype.kind == "f"


def write_rows(path, header: Sequence[str], rows: np.ndarray) -> None:
    """The one CSV writer: the quoted header, then the :func:`text_rows`
    records, each line ended by CR LF, in UTF-8; the bytes equal what
    ``csv.writer`` writes for the same cells. The header is not empty."""
    head = ",".join(map(quote, header)) or '""'
    with open(path, "wb") as fh:
        fh.write(head.encode() + b"\r\n" + rows.base.translate(None, bytes([PAD])))


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


# A trailing window ending at slot t is a suffix of the block before t's
# block and a prefix of t's own block, when the series is cut into blocks
# of the window's length; so one running pass forwards and one backwards
# over each block give every window in O(T), whatever its length.


def _blocks(values: np.ndarray, window: int, fill: float) -> np.ndarray:
    """``values`` cut into rows of ``min(window, T)`` entries, the last row
    padded with ``fill``; a window longer than the series is a prefix of it."""
    length = max(1, min(window, len(values)))
    out = np.full(-(-len(values) // length) * length, fill)
    out[: len(values)] = values
    return out.reshape(-1, length)


def _older(suffix: np.ndarray, fill: float) -> np.ndarray:
    """Entry (b, j) is ``suffix``'s entry (b-1, j+1): of the window ending at
    (b, j), the part in the block before; ``fill`` where that part is empty."""
    out = np.full_like(suffix, fill)
    out[1:, :-1] = suffix[:-1, 1:]
    return out


def _trailing(
    fn: np.ufunc, values: np.ndarray, window: int, fill: float
) -> np.ndarray:
    """``fn`` over the trailing window ending at each slot, for an associative
    ``fn`` with identity ``fill``: ``np.add`` with 0, or ``np.fmin`` or
    ``np.fmax`` with NaN (van Herk 1992; Gil & Werman 1993)."""
    blocks = _blocks(values, window, fill)
    suffix = fn.accumulate(blocks[:, ::-1], axis=1)[:, ::-1]
    merged = fn(_older(suffix, fill), fn.accumulate(blocks, axis=1))
    return merged.ravel()[: len(values)]


def _running_moments(ok: np.ndarray, dx: np.ndarray, dy: np.ndarray):
    """Along each row, over the entries up to each position that ``ok``
    marks with 1 (``dx`` and ``dy`` are 0 elsewhere): the count, the means,
    and the centred sums of products xx, yy and xy by Welford's update. Each
    term is a deviation from the mean before its entry times one from the
    mean after it, so an xx or yy term is never negative beyond rounding."""
    n = np.cumsum(ok, axis=1)
    scale = 1.0 / np.maximum(n, 1.0)
    mx = np.cumsum(dx, axis=1) * scale
    my = np.cumsum(dy, axis=1) * scale
    ex, ey = (dx - mx) * ok, (dy - my) * ok
    zero = np.zeros((len(ok), 1))
    bx = dx - np.hstack((zero, mx[:, :-1]))
    by = dy - np.hstack((zero, my[:, :-1]))
    products = (bx * ex, by * ey, bx * ey)
    return (n, mx, my, *(np.cumsum(p, axis=1) for p in products))


def _window_moments(x: np.ndarray, y: np.ndarray, window: int):
    """Per trailing window, over the complete pairs of ``x`` and ``y``: the
    count and the centred sums of products xx, yy and xy, in O(T) for any
    window.

    Each block is shifted by the mean of its complete pairs. The two parts
    of a window take their moments from running sums inside their own
    blocks, and merge by the pairwise update of Chan, Golub & LeVeque
    (1983). No sum runs across blocks: a moment taken as the difference of
    two running sums over the whole series cancels, and goes negative, on a
    series that drifts far from zero.
    """
    ok = ~(np.isnan(x) | np.isnan(y))
    okb = _blocks(ok, window, 0.0)
    count = np.maximum(okb.sum(axis=1, keepdims=True), 1.0)
    shifted, steps = [], []
    for values in (x, y):
        blocks = _blocks(np.where(ok, values, 0.0), window, 0.0)
        shift = blocks.sum(axis=1, keepdims=True) / count
        shifted.append((blocks - shift) * okb)
        steps.append(np.diff(shift, axis=0, prepend=shift[:1]))
    dx, dy = shifted
    # part b: the prefix of each slot's own block; part a: the older suffix
    nb, mb_x, mb_y, *sums_b = _running_moments(okb, dx, dy)
    backward = _running_moments(okb[:, ::-1], dx[:, ::-1], dy[:, ::-1])
    na, ma_x, ma_y, *sums_a = (_older(m[:, ::-1], 0.0) for m in backward)
    n = na + nb
    # part a's mean less part b's, both in the shift of part b's block
    gx, gy = ma_x - mb_x - steps[0], ma_y - mb_y - steps[1]
    weight = na * nb / np.maximum(n, 1.0)
    pairs = ((gx, gx), (gy, gy), (gx, gy))
    sums = (a + b + weight * g * h for a, b, (g, h) in zip(sums_a, sums_b, pairs))
    return tuple(m.ravel()[: len(x)] for m in (n, *sums))


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
    count = _trailing(np.add, present, window, 0.0)
    total = _trailing(np.add, np.where(present, arr, 0.0), window, 0.0)
    out = np.full(len(arr), np.nan)
    ok = count >= min_periods
    out[ok] = total[ok] / count[ok]
    return Series(out)


def rolling_corr(x: Series, y: Series, window: int, min_periods: int) -> Series:
    """Trailing-window Pearson correlation of two aligned series.

    Uses the sample (n-1) covariance in numerator and denominator so the
    factor cancels. A window with fewer than ``min_periods`` complete pairs,
    or with either side constant (its smallest present value equals its
    largest), yields a missing slot. The centred sums come from
    :func:`_window_moments`.
    """
    if len(x) != len(y):
        raise ValueError("series lengths differ")
    if min_periods > window:
        raise ValueError("min_periods must not exceed window")
    n, sxx, syy, sxy = _window_moments(x.array, y.array, window)
    missing = np.isnan(x.array) | np.isnan(y.array)
    valid = n >= max(min_periods, 2)
    for values in (x.array, y.array):
        paired = np.where(missing, np.nan, values)
        lo = _trailing(np.fmin, paired, window, math.nan)
        hi = _trailing(np.fmax, paired, window, math.nan)
        valid &= lo < hi
    out = np.full(len(x), np.nan)
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
