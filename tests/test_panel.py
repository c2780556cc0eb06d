import csv
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bimonetary import panel as panel_module
from bimonetary._csvbytes import PAD
from bimonetary.errors import (
    BimonetaryError,
    DegenerateRange,
    DuplicateColumn,
    DuplicateDate,
    LeadingOrTrailingGap,
    MalformedRecord,
    MissingColumn,
    UnparseableValue,
)
from bimonetary.panel import (
    CANONICAL_VARIABLES,
    Panel,
    Series,
    linear_interpolate,
    load_csv,
    minmax_rescale,
    rolling_corr,
    rolling_mean,
    scan_csv,
    text_rows,
    write_csv,
    write_rows,
)
from bimonetary.scenarios import Shock, apply_scenario
from tests import reference
from tests.conftest import SEED, daily_dates, make_canonical_panel


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def canonical_header():
    return ",".join(["Date", *CANONICAL_VARIABLES])


def canonical_row(day, value):
    return ",".join([day] + [str(value)] * len(CANONICAL_VARIABLES))


def read_outcome(read, source, schema):
    """What ``read`` gives: the scan, its matrix as bits, or the error's type
    and message."""
    try:
        scan = read(source, schema)
    except BimonetaryError as error:
        return type(error), str(error)
    matrix = scan.matrix
    return scan.header, scan.columns, scan.dates, matrix.shape, matrix.tobytes()


PLAIN_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
)
# cells other than a plain number: padded, underscored, non-finite, empty,
# blank, quoted, or no number at all
ODD_NUMBERS = st.sampled_from(
    [" 1.5 ", "\t-2\t", "\xa03", "1_000", "nan", "NaN", "inf", "-inf", "Infinity",
     "1e400", "-1e400", "", " ", "  ", '"2.5"', '"1,5"', '""', "abc", "1e", "0x10",
     "+.5", "-0.0", "１"]
)
ODD_DATES = st.sampled_from(
    [" 2018-01-02 ", "2018-01-03T00:00:00", "2018-01-04 12:30", "2018-01-05 garbage",
     "2018-01-06Tnonsense", "2018-13-01", "20180107", "", "  ", '"2018-01-08"']
)


@st.composite
def panel_texts(draw):
    """The text of a small panel CSV and a schema to load it with. One draw
    in two is complete and quote-free with distinct dates, so numpy reads
    it; the others mix in odd cells, repeated dates, blank lines, short and
    long rows, repeated names, stray CRs and absent schema columns."""
    plain = draw(st.booleans())
    names = draw(st.lists(st.sampled_from(["x", "y", "M2"]), unique=True, max_size=3))
    header = draw(st.permutations(["Date", *names]))
    if not plain and draw(st.booleans()):
        header.append(draw(st.sampled_from(header)))
    numbers = PLAIN_NUMBERS if plain else st.one_of(PLAIN_NUMBERS, ODD_NUMBERS)
    days = draw(st.permutations(range(1, 10)))
    lines = [",".join(header)]
    for day in days[: draw(st.integers(0, 6))]:
        date = f"2018-01-0{day}"
        if not plain:
            date = draw(st.sampled_from([date, "2018-01-01"]) | ODD_DATES)
        cells = [date if name == "Date" else draw(numbers) for name in header]
        if not plain and draw(st.booleans()):
            cells = cells[: draw(st.integers(0, len(cells)))]
            cells += draw(st.lists(numbers, max_size=1))
        lines.append(",".join(cells))
    if not plain:
        for _ in range(draw(st.integers(0, 2))):
            blank = draw(st.sampled_from(["", " ", ",,", " , "]))
            lines.insert(draw(st.integers(1, len(lines))), blank)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    if not plain and draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + "\r" + text[at:]
    schema_names = names if plain else [*names, "w"]
    schema = None
    if draw(st.booleans()):
        schema = [n for n in draw(st.permutations(schema_names)) if draw(st.booleans())]
    return text, schema


class TestLoadCsv:
    def test_two_row_canonical_file(self, tmp_path):
        path = tmp_path / "data.csv"
        write_lines(
            path,
            [
                canonical_header(),
                canonical_row("2018-01-01", 1.5),
                canonical_row("2018-01-02", 2.5),
            ],
        )
        panel = load_csv(path, CANONICAL_VARIABLES)
        assert panel.n_rows == 2
        assert len(panel.variables) == 16
        assert panel.column("M2").values == (1.5, 2.5)

    def test_missing_schema_column(self, tmp_path):
        path = tmp_path / "data.csv"
        header = ",".join(
            ["Date"] + [c for c in CANONICAL_VARIABLES if c != "Pi Exp"]
        )
        write_lines(path, [header])
        with pytest.raises(MissingColumn) as info:
            load_csv(path, CANONICAL_VARIABLES)
        assert info.value.name == "Pi Exp"

    def test_rows_out_of_order_are_sorted(self, tmp_path):
        path = tmp_path / "data.csv"
        write_lines(
            path,
            [
                "Date,x",
                "2018-01-03,3",
                "2018-01-01,1",
                "2018-01-02,2",
            ],
        )
        panel = load_csv(path)
        assert panel.dates == daily_dates(3)
        assert panel.column("x").values == (1.0, 2.0, 3.0)

    def test_duplicate_date(self, tmp_path):
        path = tmp_path / "data.csv"
        write_lines(path, ["Date,x", "2018-01-01,1", "2018-01-01,2"])
        with pytest.raises(DuplicateDate):
            load_csv(path)

    def test_numeric_read_leaves_numpy_ma_unimported(self, tmp_path):
        """Importing numpy.ma costs every run about 16 ms, so numpy's route
        finds a repeated date by sorting; it still raises, however far apart
        the two rows are."""
        good, repeated = tmp_path / "good.csv", tmp_path / "repeated.csv"
        lines = ["Date,x", "2018-01-02,2", "2018-01-01,1"]
        write_lines(good, lines)
        write_lines(repeated, lines + ["2018-01-02,3"])
        env = dict(os.environ, PYTHONPATH=str(Path(panel_module.__file__).parents[1]))
        code = "import sys; from bimonetary.panel import load_csv; load_csv(%r); "
        code += "print('numpy.ma' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", code % str(good)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout == "False\n"
        with pytest.raises(DuplicateDate, match="duplicate date 2018-01-02"):
            load_csv(repeated)

    def test_unparseable_value_carries_location(self, tmp_path):
        path = tmp_path / "data.csv"
        write_lines(path, ["Date,x", "2018-01-01,oops"])
        with pytest.raises(UnparseableValue) as info:
            load_csv(path)
        assert info.value.row == 2
        assert info.value.column == "x"

    def test_time_suffix_is_truncated(self, tmp_path):
        path = tmp_path / "data.csv"
        write_lines(path, ["Date,x", "2018-01-01 00:00:00,1"])
        panel = load_csv(path)
        assert panel.dates[0] == date(2018, 1, 1)

    def test_empty_cell_is_missing(self, tmp_path):
        path = tmp_path / "data.csv"
        write_lines(path, ["Date,x", "2018-01-01,", "2018-01-02,2"])
        panel = load_csv(path)
        assert panel.column("x").values == (None, 2.0)

    def test_short_row_is_an_error(self, tmp_path):
        path = tmp_path / "short.csv"
        write_lines(path, ["Date,x,y", "2018-01-01,1"])
        with pytest.raises(UnparseableValue):
            load_csv(path)

    def test_non_finite_tokens_rejected(self, tmp_path):
        for token in ("nan", "inf", "-inf", "1e400"):
            path = tmp_path / "bad.csv"
            write_lines(path, ["Date,x", f"2018-01-01,{token}"])
            with pytest.raises(UnparseableValue):
                load_csv(path)

    def test_round_trip_is_identity(self, tmp_path):
        panel = make_canonical_panel(50)
        path = tmp_path / "out.csv"
        write_csv(panel, path)
        assert load_csv(path, CANONICAL_VARIABLES) == panel


    def test_gappy_round_trip_is_identity(self, tmp_path):
        path = tmp_path / "gappy.csv"
        write_lines(
            path,
            ["Date,x,y", "2018-01-01,1.5,", "2018-01-02,,-0.25", "2018-01-03,3.0,4.0"],
        )
        panel = load_csv(path)
        assert panel.column("x").values == (1.5, None, 3.0)
        copy = tmp_path / "copy.csv"
        write_csv(panel, copy)
        assert copy.read_text(encoding="utf-8") == path.read_text(encoding="utf-8")
        assert load_csv(copy) == panel
        assert reference.format_cell(float("nan")) == ""

    def test_names_with_comma_and_quote_round_trip(self, tmp_path):
        name = 'spread, "EMBI" basis'
        panel = Panel(
            daily_dates(3),
            {name: Series([1.5, None, -0.0]), "x": Series([1, 2, 3])},
        )
        path = tmp_path / "quoted.csv"
        write_csv(panel, path)
        assert path.read_bytes().startswith(b'Date,"spread, ""EMBI"" basis",x\r\n')
        assert load_csv(path) == panel

    @pytest.mark.parametrize(
        "stamp",
        ["2018-01-01T00:00", "2018-01-01 12:30:15.500", "2018-01-01T23"],
    )
    def test_one_separator_and_a_time_of_day_are_read(self, tmp_path, stamp):
        path = tmp_path / "data.csv"
        write_lines(path, ["Date,x", f"{stamp},1", "2018-01-02,2"])
        assert load_csv(path).dates[0] == date(2018, 1, 1)

    @pytest.mark.parametrize(
        "stamp",
        [
            "2018-01-01 garbage",
            "2018-01-01Tnonsense",
            "2018-01-01T",
            "2018-01-01 0:0",
            # one separator only, and a time of day without a UTC offset
            "2018-01-01TT00:00",
            "2018-01-01 T00:00",
            "2018-01-01  00:00",
            "2018-01-01 00:00:00Z",
            "2018-01-01T00:00+05:00",
        ],
    )
    def test_suffix_that_is_not_a_time_of_day_is_rejected(self, tmp_path, stamp):
        path = tmp_path / "data.csv"
        write_lines(path, ["Date,x", "2018-01-02T00:00:00,2", f"{stamp},1"])
        with pytest.raises(UnparseableValue) as info:
            load_csv(path)
        error = info.value
        assert (error.row, error.column, error.text) == (3, "Date", stamp)

    @pytest.mark.parametrize(
        "header, schema, name",
        [
            ("Date,M2,M2", None, "M2"),
            ("Date,M2,x,Date", None, "Date"),
            ("Date,x,M2,M2", ["M2"], "M2"),
            ('Date,"M2",M2', ["M2"], "M2"),
        ],
        ids=["loaded", "date", "schema", "quoted"],
    )
    def test_repeated_header_name_is_an_error(self, tmp_path, header, schema, name):
        path = tmp_path / "data.csv"
        write_lines(path, [header, "2018-01-01,1,2,3"])
        with pytest.raises(DuplicateColumn) as info:
            load_csv(path, schema)
        assert info.value.name == name

    def test_repeated_unloaded_header_name_is_ignored(self, tmp_path):
        path = tmp_path / "data.csv"
        write_lines(path, ["Date,note,M2,note", "2018-01-01,1,2,3"])
        assert load_csv(path, ["M2"]).column("M2").values == (2.0,)

    def test_header_only_file_is_empty_and_warns_nothing(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"Date,x,y\r\n\r\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            panel = load_csv(path)
        assert (panel.n_rows, panel.variables) == (0, ("x", "y"))

    def test_load_leaves_the_date_check_to_the_scan(self, tmp_path, monkeypatch):
        path = tmp_path / "data.csv"
        write_lines(path, ["Date,x", "2018-01-03,3", "2018-01-01,1"])
        checked = []
        monkeypatch.setattr(panel_module, "_check_dates", checked.append)
        assert load_csv(path).dates == (date(2018, 1, 1), date(2018, 1, 3))
        assert checked == []

    def test_unquoted_cell_over_the_csv_field_limit_names_its_row(self, tmp_path):
        # numpy would read the file, as the long cell is in no loaded column;
        # the csv module stops a field at 131,072 characters
        path = tmp_path / "long.csv"
        long_row = "2018-01-02,2," + "a" * 200_000
        write_lines(path, ["Date,x,note", "2018-01-01,1,a", long_row])
        with pytest.raises(MalformedRecord) as info:
            load_csv(path, ["x"])
        assert info.value.row == 3


def route_errors(tmp_path, text, schema=None) -> list[BimonetaryError]:
    """The error that :func:`scan_csv` raises on a file of ``text``, and the
    one the record loop raises on it alone."""
    path = tmp_path / "panel.csv"
    path.write_bytes(text.encode("utf-8"))
    errors = []
    for read, source in [
        (scan_csv, path),
        (panel_module._scan_records, io.StringIO(text, newline="")),
    ]:
        with pytest.raises(BimonetaryError) as info:
            read(source, schema)
        errors.append(info.value)
    return errors


class TestCsvRoutes:
    """`scan_csv` reads a quote-free file without empty cells with
    `np.loadtxt` and every other file, and every error, with the record
    loop; the two must agree on everything they both read."""

    def test_complete_quote_free_file_never_reaches_the_csv_module(
        self, tmp_path, monkeypatch
    ):
        class Reached(Exception):
            pass

        def reader(*args, **kwargs):
            raise Reached

        panel = make_canonical_panel(2000)
        path = tmp_path / "panel.csv"
        write_csv(panel, path)
        lines = path.read_bytes().decode("utf-8").split("\r\n")
        cells = lines[1001].split(",")
        cells[1 + CANONICAL_VARIABLES.index("M2")] = ""
        lines[1001] = ",".join(cells)
        gappy = tmp_path / "gappy.csv"
        gappy.write_bytes("\r\n".join(lines).encode("utf-8"))

        monkeypatch.setattr(csv, "reader", reader)
        assert load_csv(path) == panel
        with pytest.raises(Reached):
            load_csv(gappy)
        monkeypatch.undo()
        m2 = panel.column("M2").to_array()
        m2[1000] = math.nan
        assert load_csv(gappy) == panel.with_columns({"M2": Series(m2)})

    @pytest.mark.parametrize(
        "lines, schema, row",
        [
            (["Date,x,y", "2018-01-01,1,5,2"], None, 2),
            (["Date,x,y", "2018-01-01,1,2", "2018-01-02,3,4, 5"], None, 3),
            # the comma total is the header's: a line that lacks only the
            # unread column sits beside the long one
            (["Date,x,note", "2018-01-01,1", "2018-01-02,2,a,b"], ["x"], 3),
            (['Date,x,y', '2018-01-01,"1",5,2'], None, 2),
        ],
        ids=["decimal-comma", "later-row", "beside-a-short-line", "quoted"],
    )
    def test_record_longer_than_the_header_is_malformed(
        self, tmp_path, lines, schema, row
    ):
        for error in route_errors(tmp_path, "\n".join(lines) + "\n", schema):
            assert isinstance(error, MalformedRecord)
            assert error.row == row

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_empty_cells_beyond_the_header_are_read(self, tmp_path, end):
        text = end.join(["Date,x,y", "2018-01-01,1,2,", "2018-01-02,3,4, ,", ""])
        path = tmp_path / "panel.csv"
        path.write_bytes(text.encode("utf-8"))
        records = panel_module._scan_records(io.StringIO(text, newline=""), None)
        for scan in (scan_csv(path), records):
            assert scan.columns == ["x", "y"]
            assert scan.matrix.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("token", ["1_000", "\u0661\u0662\u0663", "\uff11\uff12"])
    def test_number_outside_the_ascii_grammar_is_unparseable(self, tmp_path, token):
        text = f"Date,x\n2018-01-01,1\n2018-01-02,{token}\n"
        for error in route_errors(tmp_path, text):
            assert isinstance(error, UnparseableValue)
            assert (error.row, error.column, error.text) == (3, "x", token)

    @pytest.mark.parametrize(
        "text, numpy_reads",
        [
            ("x,Date\r\n1,2018-01-02\r\n2,2018-01-01\r\n", True),
            ("Date,note,x\n2018-01-01,\u20acuro,1\n2018-01-02,\xe9,2\n", True),
            ("Date,x,note\n2018-01-01,1,\n2018-01-02,2,a\n", True),
            ("Date,note,x\n2018-01-01,,1\n2018-01-02,,2\n", True),
            ("Date,x\n2018-01-01 00:00:00,1\n2018-01-02,2\n", False),
            ("Date,x\n2018-01-01,1,\n2018-01-02,2,\n", False),
            ("Date,x,y\n2018-01-01,,1\n2018-01-02,2,3\n", False),
        ],
        ids=["crlf-date-last", "non-ascii-unread-cell", "empty-last-unread-cell",
             "blank-unread-column", "time-of-day", "empty-cell-past-the-header",
             "empty-read-cell"],
    )
    def test_route_reads_what_the_record_loop_reads(
        self, tmp_path, monkeypatch, text, numpy_reads
    ):
        def reader(*args, **kwargs):
            raise AssertionError("the csv module was reached")

        path = tmp_path / "panel.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = read_outcome(
            panel_module._scan_records, io.StringIO(text, newline=""), ["x"]
        )
        assert (panel_module._scan_plain(text, ["x"]) is not None) == numpy_reads
        if numpy_reads:
            monkeypatch.setattr(csv, "reader", reader)
        assert read_outcome(scan_csv, path, ["x"]) == expected

    # numpy reads some of these as dates, which format back to other text or
    # lie outside years 1..9999; the record loop rejects every one
    @pytest.mark.parametrize(
        "stamp",
        ["20180102", "2018-W01-2", "today", "NaT", "0000-01-01", "-001-01-01",
         "10000-01-01", "+018-01-01", "2018-01", "1-01-01T00Z",
         "\uff12\uff10\uff11\uff18-\uff10\uff11-\uff10\uff12"],
    )
    def test_date_other_than_yyyy_mm_dd_is_unparseable(self, tmp_path, stamp):
        # numpy's date parser warns on a time zone, and no warning may show
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            errors = route_errors(tmp_path, f"Date,x\n2018-01-01,1\n{stamp},2\n")
        for error in errors:
            assert isinstance(error, UnparseableValue)
            assert (error.row, error.column, error.text) == (3, "Date", stamp)

    @given(panel_texts())
    @example(("Date,x\ry\n2018-01-01,1\n", None))
    @example(("Date,x\n2018-01-01,1\n\n2018-01-02,2\r\n", None))
    @example(("Date,x,y\n2018-01-01,1,2,\n", ["x"]))
    @settings(max_examples=300, deadline=None)
    def test_both_routes_read_alike(self, case):
        text, schema = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "panel.csv"
            for mark in ("", "\ufeff"):
                path.write_bytes((mark + text).encode("utf-8"))
                assert read_outcome(scan_csv, path, schema) == read_outcome(
                    panel_module._scan_records, io.StringIO(text, newline=""), schema
                )


# special values of the writer's text contract, then any finite float
CELL_FLOATS = st.one_of(
    st.sampled_from(
        [math.nan, 0.0, -0.0, 5e-324, -2.5e-310, 1e22, -1e22, 1e16, 0.1, 123456789.0]
    ),
    st.floats(allow_nan=False, allow_infinity=False),
)
CELL_TEXT = st.text(
    st.one_of(
        st.characters(blacklist_categories=("Cs",)), st.sampled_from(',"\r\n ')
    ),
    max_size=6,
)


@st.composite
def tables(draw):
    """A header and equal-length columns, each of floats, ints or text."""
    width = draw(st.integers(1, 5))
    n_rows = draw(st.integers(0, 6))
    header = draw(st.lists(CELL_TEXT, min_size=width, max_size=width))
    kinds = draw(
        st.lists(
            st.sampled_from(["float", "int", "text"]), min_size=width, max_size=width
        )
    )
    cells = {
        "float": CELL_FLOATS,
        "int": st.integers(-(10**20), 10**20),
        "text": CELL_TEXT,
    }
    columns = [
        draw(st.lists(cells[kind], min_size=n_rows, max_size=n_rows)) for kind in kinds
    ]
    return header, kinds, columns


class TestCsvWriter:
    @given(tables())
    @example(([""], ["text"], [["", "a"]]))  # a lone empty cell is quoted
    @settings(max_examples=300, deadline=None)
    def test_bytes_equal_csv_writer_with_format_cell(self, table):
        header, kinds, columns = table
        buffer = io.StringIO(newline="")
        writer = csv.writer(buffer)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow(
                [reference.format_cell(c) if isinstance(c, float) else c for c in row]
            )
        expected = buffer.getvalue().encode("utf-8")

        as_text = {
            "float": lambda column: np.array(column, dtype=np.float64),
            "int": lambda column: [str(v) for v in column],
            "text": lambda column: list(column),
        }
        text_columns = [as_text[k](c) for k, c in zip(kinds, columns)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            write_rows(path, header, text_rows(*text_columns))
            assert path.read_bytes() == expected

    @given(st.lists(st.dates(), max_size=20), st.sampled_from([list, tuple]))
    @example([date.min, date.max, date(18, 1, 1)], tuple)
    @settings(max_examples=200, deadline=None)
    def test_date_column_bytes_equal_str(self, days, kind):
        rows = text_rows(kind(days), np.ones(len(days)))
        expected = "".join(f"{day},1.0\r\n" for day in days).encode()
        assert rows.base.translate(None, bytes([PAD])) == expected

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError):
            text_rows(["a", "b"], np.array([1.0]))


def kernel_sample(seed: int, n: int) -> np.ndarray:
    """Random 64-bit patterns (NaN and infinities dropped), magnitudes
    log-uniform over the whole exponent range, subnormals included, and
    integers up to 2**63, each of either sign."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).view(np.float64)
    log_uniform = np.exp(rng.uniform(math.log(5e-324), math.log(sys.float_info.max), n))
    integers = rng.integers(-(2**63), 2**63, n, dtype=np.int64, endpoint=False)
    signs = rng.choice([-1.0, 1.0], n)
    values = np.concatenate([bits, log_uniform * signs, integers.astype(np.float64)])
    return values[np.isfinite(values)]


#: A value for every path of the column kernel, each tried with both signs.
FLOAT_EDGES = [
    0.0,  # laid out without digits, as is NaN
    math.nan,
    5e-324,  # outside [1e-290, 1e290]: repr
    sys.float_info.max,
    1e-291,
    1e291,
    *(2.0**k for k in range(-1074, 1024)),  # power-of-two mantissas: repr
    *(10.0**k for k in range(-30, 31)),
    *(math.nextafter(v, to) for v in (1e16, 1e-5) for to in (0.0, math.inf)),
    9.999999999999999e-05,  # log10 rounds up to -4: repr
    1e23,  # a double below 10**23 whose log10 is 23.0: repr
    1234567890123456.25,  # a tie at 17 digits: repr
    1234567890123456.5,  # a tie at 16 digits: repr
    18014398509481988.0,  # a 16-digit decimal on an end of the interval: repr
    18014398509481992.0,  # the same, where the end reads back: repr
    0.1,
    2 / 3,
    123456789012345.67,
    1e-4,
]


def float_column_cells(values: np.ndarray) -> list[str]:
    """The cells :func:`text_rows` writes for a float column, read back
    from its records beside an index column (so that no record is a lone
    empty cell, which is quoted)."""
    rows = text_rows(range(len(values)), values)
    records = rows.base.translate(None, bytes([PAD])).decode().split("\r\n")[:-1]
    return [record.partition(",")[2] for record in records]


class TestFloatKernel:
    def test_matches_format_cell_on_a_million_values(self):
        values = kernel_sample(SEED, 350_000)
        assert len(values) > 1_000_000
        expected = [reference.format_cell(v) for v in values.tolist()]
        assert float_column_cells(values) == expected

    def test_matches_format_cell_on_every_path(self):
        values = np.array(FLOAT_EDGES + [-v for v in FLOAT_EDGES])
        expected = [reference.format_cell(v) for v in values.tolist()]
        assert float_column_cells(values) == expected
        assert float_column_cells(values[:0]) == []

    @given(st.lists(st.floats(allow_infinity=False), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_matches_format_cell(self, values):
        column = np.array(values, dtype=np.float64)
        assert float_column_cells(column) == [reference.format_cell(v) for v in values]


class TestSeriesStorage:
    def test_column_array_is_read_only(self):
        source = np.array([1.0, 2.0, 3.0])
        panel = Panel(daily_dates(3), {"x": Series(source)})
        shared = panel.with_columns({"y": Series([0, 0, 0])})
        assert shared.column("x") is panel.column("x")
        with pytest.raises(ValueError):
            shared.column("x").array[0] = 9.0
        source[0] = 9.0
        assert panel.column("x").values == (1.0, 2.0, 3.0)
        assert panel.column("x").array.dtype == np.float64


class TestLinearInterpolate:
    def test_midpoint(self):
        out = linear_interpolate(Series([1, None, 3]))
        assert out.values == (1.0, 2.0, 3.0)

    def test_equal_spacing(self):
        out = linear_interpolate(Series([0, None, None, 3]))
        assert out.values == (0.0, 1.0, 2.0, 3.0)

    def test_leading_gap(self):
        with pytest.raises(LeadingOrTrailingGap):
            linear_interpolate(Series([None, 2, 3]))

    def test_trailing_gap(self):
        with pytest.raises(LeadingOrTrailingGap):
            linear_interpolate(Series([1, 2, None]))


class TestRollingMean:
    def test_hand_example(self):
        out = rolling_mean(Series([1, 2, 3]), window=2, min_periods=1)
        assert out.values == (1.0, 1.5, 2.5)

    def test_constant(self):
        out = rolling_mean(Series([5, 5, 5]), window=3, min_periods=1)
        assert out.values == (5.0, 5.0, 5.0)

    def test_insufficient_periods(self):
        out = rolling_mean(Series([1, 2]), window=3, min_periods=3)
        assert out.values == (None, None)

    def test_min_periods_larger_than_window(self):
        with pytest.raises(ValueError):
            rolling_mean(Series([1]), window=2, min_periods=3)


class TestRollingCorr:
    def test_self_correlation(self, rng):
        x = Series(rng.standard_normal(30))
        out = rolling_corr(x, x, window=10, min_periods=2)
        for v in out.values[2:]:
            assert v == pytest.approx(1.0, abs=1e-12)

    def test_anti_correlation(self, rng):
        values = rng.standard_normal(30)
        out = rolling_corr(
            Series(values), Series(-values), window=10, min_periods=2
        )
        for v in out.values[2:]:
            assert v == pytest.approx(-1.0, abs=1e-12)

    def test_constant_window_is_missing(self):
        y = Series([1, 2, 3, 4])
        for level in (1.0, 0.1):
            out = rolling_corr(Series([level] * 4), y, window=3, min_periods=1)
            assert out.values == (None,) * 4

    def test_full_window_matches_full_sample_pearson(self, rng):
        x = rng.standard_normal(60)
        y = 0.3 * x + rng.standard_normal(60)
        out = rolling_corr(Series(x), Series(y), window=60, min_periods=60)
        expected = np.corrcoef(x, y)[0, 1]
        assert out.values[-1] == pytest.approx(expected, abs=1e-12)


class TestMinmaxRescale:
    def test_affine_endpoints(self):
        out = minmax_rescale(Series([0, 5, 10]), Series([2, 4]))
        assert out.values == (2.0, 3.0, 4.0)

    def test_identity_onto_itself(self):
        values = Series([1.5, -2.0, 7.25, 0.5])
        out = minmax_rescale(values, values)
        assert np.allclose(out.to_array(), values.to_array(), rtol=1e-12)

    def test_degenerate_source(self):
        with pytest.raises(DegenerateRange):
            minmax_rescale(Series([3, 3, 3]), Series([0, 1]))

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6),
            min_size=2,
            max_size=30,
        ),
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6),
            min_size=2,
            max_size=30,
        ),
    )
    @example(source=[1.0, 2.0, 10.0], target=[185.0, 185.0])
    def test_attains_target_extremes_exactly(self, source, target):
        if max(source) <= min(source):
            return
        out = minmax_rescale(Series(source), Series(target))
        present = [v for v in out.values if v is not None]
        assert max(present) == max(target)
        assert min(present) == min(target)


class TestPanel:
    def test_clean_removes_all_gaps(self):
        panel = Panel(
            daily_dates(4),
            {"x": Series([1, None, None, 4]), "y": Series([0, 1, None, 3])},
        )
        cleaned = panel.clean()
        assert cleaned.column("x").values == (1.0, 2.0, 3.0, 4.0)
        assert not np.isnan(cleaned.column("y").array).any()

    def test_duplicate_dates_rejected(self):
        with pytest.raises(DuplicateDate):
            Panel((date(2018, 1, 1), date(2018, 1, 1)), {})

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Panel(daily_dates(3), {"x": Series([1.0])})

    def test_unsorted_dates_rejected(self):
        with pytest.raises(ValueError, match="not increasing"):
            Panel((date(2018, 1, 2), date(2018, 1, 1)), {})

    def test_derived_panels_reuse_the_date_check(self, monkeypatch):
        panel = Panel(
            daily_dates(6),
            {"x": Series([1, None, 3, 4, 5, 6]), "y": Series(range(6))},
        )
        checked = []
        monkeypatch.setattr(panel_module, "_check_dates", checked.append)
        clean = panel.clean()
        clean.with_columns({"z": Series(range(6))})
        clean.restrict_dates(date(2018, 1, 2), None)
        apply_scenario(clean, [Shock("x", "additive", 1.0)])
        assert checked == []
        Panel(clean.dates, {})
        assert checked == [clean.dates]

    def test_derived_panel_still_checks_column_lengths(self):
        panel = Panel(daily_dates(3), {"x": Series([1, 2, 3])})
        with pytest.raises(ValueError):
            panel.with_columns({"y": Series([1.0])})


class TestRollingOracle:
    @pytest.mark.parametrize("window, min_periods", [(1, 1), (7, 3), (40, 1), (250, 20)])
    def test_matches_per_window_loop_with_gaps(self, window, min_periods):
        rng = np.random.default_rng(20180101 + window)
        x = rng.standard_normal(300)
        y = 0.5 * x + rng.standard_normal(300)
        x[rng.random(300) < 0.1] = np.nan
        y[rng.random(300) < 0.1] = np.nan
        means, corrs = reference.trailing_windows(x, y, window, min_periods)
        mean = rolling_mean(Series(x), window, min_periods).array
        corr = rolling_corr(Series(x), Series(y), window, min_periods).array
        np.testing.assert_array_equal(np.isnan(mean), np.isnan(means))
        np.testing.assert_array_equal(np.isnan(corr), np.isnan(corrs))
        np.testing.assert_allclose(mean, means, rtol=0, atol=1e-12)
        np.testing.assert_allclose(corr, corrs, rtol=0, atol=1e-12)


class TestRollingWithGaps:
    def test_rolling_mean_skips_missing_cells(self):
        out = rolling_mean(Series([1.0, None, 3.0]), window=3, min_periods=2)
        assert out.values == (None, None, 2.0)

    def test_rolling_corr_uses_pairwise_complete_points(self):
        x = Series([1.0, 2.0, None, 4.0, 5.0])
        y = Series([2.0, 4.0, 0.0, 8.0, 10.0])
        out = rolling_corr(x, y, window=5, min_periods=3)
        assert out.values[-1] == pytest.approx(1.0, abs=1e-12)
