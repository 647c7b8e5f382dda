"""Differential fuzz test of the one CSV reader.

``read_series_csv`` and ``ingest_prices`` both read through
``processes.read_csv_column``: numpy's C reader first, then one
line-numbered ``csv.reader`` row scan.  The reference readers below are the
pure row-scan versions they replaced, copied verbatim; on every generated
file both must return bit-equal arrays or raise the same exception type
with the same message.  The intended differences: a series file with no
data rows used to give an empty array and now raises ParseError, a price
whose relative return overflows now raises ParseError naming its line
instead of ``returns_from_prices``' ReturnOverflow, and series rows follow
the CSV rules price rows always followed (see ``series_expectation``).
"""

import csv
import hashlib
import io
import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kestenlab.cli import ingest_prices
from kestenlab.errors import InvalidConfig, NonPositivePrice, ParseError, ReturnOverflow
from kestenlab.estimators import returns_from_prices
from kestenlab.processes import ReturnSeries, read_series_csv


def reference_read_series_csv(path: str | Path) -> np.ndarray:
    """Read a t,r series file back into a value array of finite returns."""
    path = Path(path)
    with path.open() as fh:
        header = fh.readline().strip()
        if header != "t,r":
            raise InvalidConfig(f"{path}: expected header 't,r', got {header!r}")
        try:
            values = np.asarray(
                [float(line.rsplit(",", 1)[1]) for line in fh if line.strip()],
                dtype=np.float64,
            )
        except (IndexError, ValueError):
            values = None
    if values is None or not np.isfinite(values).all():
        _raise_bad_series_row(path)
    return values


def _raise_bad_series_row(path: Path) -> None:
    """ParseError naming the first data line without a finite return."""
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                ok = lineno == 1 or not line.strip() or math.isfinite(float(line.rsplit(",", 1)[1]))
            except (IndexError, ValueError):
                ok = False
            if not ok:
                raise ParseError(f"{path}: line {lineno}: no finite return in {line.rstrip()!r}")


def reference_ingest_prices(csv_path: str | Path, column_spec: str | int = "close") -> ReturnSeries:
    """Relative returns from a price CSV; provenance is the file digest.

    ``column_spec`` is a header name or a 0-based column index.
    """
    path = Path(csv_path)
    raw = path.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file")
        col: int
        try:
            col = int(column_spec)
        except (TypeError, ValueError):
            names = [h.strip().lower() for h in header]
            want = str(column_spec).strip().lower()
            if want not in names:
                raise ParseError(
                    f"{path}: no column named {column_spec!r} in header {header!r}"
                ) from None
            col = names.index(want)
        if not 0 <= col < len(header):
            raise ParseError(f"{path}: column index {col} out of range")
        prices: list[float] = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                value = float(row[col])
            except (IndexError, ValueError):
                raise ParseError(
                    f"{path}: line {lineno}: cannot parse price from {row!r}"
                ) from None
            if not value > 0:
                raise NonPositivePrice(
                    f"{path}: line {lineno}: price {value!r} is not positive"
                )
            prices.append(value)
    if len(prices) < 2:
        raise ParseError(f"{path}: need at least two price rows, got {len(prices)}")
    prices = np.asarray(prices, dtype=np.float64)
    if prices.max() == math.inf:  # the one non-finite value that passes value > 0
        line = _price_line(path, int(prices.argmax()))
        raise ParseError(f"{path}: line {line}: price inf is not finite")
    returns = returns_from_prices(prices)
    return ReturnSeries(returns, digest, None, 0, 0)


def _price_line(path: Path, index: int) -> int:
    """Line number of the index-th price row of ``ingest_prices``, blank rows skipped."""
    with path.open(newline="") as fh:
        rows = enumerate(csv.reader(fh), start=1)
        kept = (n for n, row in rows if n > 1 and any(c.strip() for c in row))
        return next(itertools.islice(kept, index, None))


# Cells that float() and numpy's parser may read differently: specials,
# digit separators, hex, padding, quotes, a subnormal, and a separator
# control character that numpy strips and float() does not.
SPECIAL_CELLS = [
    "0", "-1.5", "inf", "-inf", "nan", "Infinity", "1_0", "0x10", " 2.5",
    '"3.5"', "", " ", "abc", "1e-320", "\x1c2",
]
CELLS = st.one_of(st.sampled_from(SPECIAL_CELLS), st.floats().map(repr))
ROWS = st.one_of(
    st.lists(CELLS, min_size=1, max_size=3).map(",".join),
    st.sampled_from(["", " ", " \t "]),
)


def csv_files(headers):
    """CSV texts: a header and 0-8 rows, LF or CRLF endings, final newline or not."""
    return st.builds(
        lambda header, rows, end, final: end.join([header, *rows]) + (end if final else ""),
        st.sampled_from(headers),
        st.lists(ROWS, max_size=8),
        st.sampled_from(["\n", "\r\n"]),
        st.booleans(),
    )


@pytest.fixture(scope="module")
def scratch():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp) / "input.csv"


def _outcome(read, path):
    try:
        return read(path), None
    except Exception as exc:  # the exception itself is what is compared
        return None, (type(exc), str(exc))


def _bits(values: np.ndarray) -> tuple:
    return values.dtype, values.shape, values.view(np.uint64).tobytes()


FUZZ = settings(max_examples=300, deadline=None, database=None)


def series_expectation(path: Path, text: str):
    """The reference series reader's outcome on ``text`` with the three
    differences of reading series rows by the CSV rules of price rows:

    (a) a row with more than two fields is read at field ``r`` (index 1),
        not at its last field;
    (b) a row whose cells are all blank, such as ``,``, is skipped;
    (c) a double-quoted cell is unquoted before it is parsed, and a bad
        row's message shows the row's cells.

    Each data line that any of them touches is rewritten to the line the
    reference reads that way, line numbers kept; a file they do not touch
    is compared with the reference as it is.
    """
    lines = io.StringIO(text, newline="").readlines()
    rewritten = {}
    for lineno, line in enumerate(lines[1:], start=2):
        body = line.rstrip("\r\n")
        cells = next(csv.reader([body]), [])
        if all(not c.strip() for c in cells):
            new = ""  # (b)
        else:
            new = ",".join(cells[:2])  # (a) and (c)
        if new.rstrip() != body.rstrip():
            rewritten[lineno] = cells
            lines[lineno - 1] = new + line[len(body):]
    path.write_text("".join(lines), newline="")
    want, want_exc = _outcome(reference_read_series_csv, path)
    path.write_text(text, newline="")
    if want_exc is not None and want_exc[0] is ParseError:
        lineno = int(want_exc[1].split(": line ")[1].split(":")[0])
        if lineno in rewritten:  # (c): the message shows the cells
            row = ",".join(rewritten[lineno]).rstrip()
            want_exc = (ParseError, f"{path}: line {lineno}: no finite return in {row!r}")
    return want, want_exc


@FUZZ
@given(text=csv_files(["t,r"]))
@example(text="t,r\n0,1.5,abc\n1,-2.5,0.5\n")  # (a)
@example(text="t,r\n0,0.01\n,\n1,0.02\n , \n")  # (b)
@example(text='t,r\n0,"3.5"\n1,"abc"\n')  # (c)
def test_series_reader_matches_reference(scratch, text):
    scratch.write_bytes(text.encode())
    got, got_exc = _outcome(read_series_csv, scratch)
    want, want_exc = series_expectation(scratch, text)
    if want is not None and want.size == 0:
        assert got_exc == (ParseError, f"{scratch}: no data rows")
    elif want_exc is not None:
        assert got_exc == want_exc
    else:
        assert got_exc is None, got_exc
        assert _bits(got) == _bits(want)


@pytest.mark.parametrize(
    "text, values",
    [
        ("t,r\n0,1.5,abc\n1,-2.5,0.5\n", [1.5, -2.5]),
        ("t,r\n0,0.01\n,\n1,0.02\n , \n", [0.01, 0.02]),
        ('t,r\n0,"3.5"\n', [3.5]),
    ],
    ids=["a-three-fields", "b-blank-cells", "c-quoted-cell"],
)
def test_series_reader_named_differences(scratch, text, values):
    scratch.write_text(text)
    assert read_series_csv(scratch).tolist() == values


def _overflowing_price(path: Path) -> tuple[int, float]:
    """Line and value of the first close price whose relative return overflows."""
    with path.open(newline="") as fh:
        rows = csv.reader(fh)
        col = next(rows).index("close")
        kept = [(n, float(row[col])) for n, row in enumerate(rows, start=2) if any(c.strip() for c in row)]
    lines, prices = zip(*kept)
    p = np.asarray(prices)
    with np.errstate(over="ignore"):
        i = int(np.argmin(np.isfinite(np.diff(p) / p[:-1]))) + 1
    return lines[i], prices[i]


@FUZZ
@given(text=csv_files(["date,close", "close", "date,open,close"]))
@example(text="date,close\nd0,1e-300\n\nd1,1e300\n")
def test_price_reader_matches_reference(scratch, text):
    scratch.write_bytes(text.encode())
    got, got_exc = _outcome(ingest_prices, scratch)
    want, want_exc = _outcome(reference_ingest_prices, scratch)
    if want_exc is not None and want_exc[0] is ReturnOverflow:
        line, price = _overflowing_price(scratch)
        message = f"{scratch}: line {line}: the return into price {price!r} is not finite"
        assert got_exc == (ParseError, message)
    else:
        assert got_exc == want_exc
    if want is not None:
        assert got.spec_digest == want.spec_digest
        assert _bits(got.values) == _bits(want.values)
