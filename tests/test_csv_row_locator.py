"""The CSV reader's row locator on long files parsed by numpy.

``read_csv_column`` takes its values from one ``np.loadtxt`` parse and
names a bad value's line by rescanning the bytes to the value's index, so
numpy's rows must be the row scan's rows, in order.  The fuzz in
``test_csv_readers.py`` writes at most 8 rows; here each file has 10^5,
with CRLF endings, a blank line every 1,000 rows, quoted close cells and
one quoted non-selected cell that spans two lines, and one bad value near
the end.  The reference readers read each line alone (series) or count
records (prices), so they read a twin file: the same rows on the same
physical lines, unquoted, with the spanning record's first line blank.
"""

import numpy as np
import pytest

from kestenlab.errors import ParseError, ReturnOverflow
from kestenlab.processes import read_series_csv
from test_csv_readers import (
    _bits,
    _outcome,
    _overflowing_price,
    read_prices,
    reference_read_prices,
    reference_read_series_csv,
)

N = 10**5
SPAN = N // 2  # the row whose first cell spans two lines
BAD = N - 10
LINE = BAD + 2 + BAD // 1000 + 1  # its physical line: the header, blank lines, the span


def _files(tmp_path, header: str, cells: dict) -> tuple:
    """The file and its twin for N rows ``t,close``; ``cells`` maps a row to its close cell."""
    real, twin = [header], [header]
    for i in range(N):
        if i % 1000 == 999:
            real.append("")
            twin.append("")
        close = cells.get(i, repr(100.0 + i % 7))
        if i == SPAN:
            real.append(f'"{i}\r\n{i}","{close}"')
            twin += ["", f"{i},{close}"]
        else:
            real.append(f'{i},"{close}"')
            twin.append(f"{i},{close}")
    paths = tmp_path / "input.csv", tmp_path / "twin.csv"
    for path, lines in zip(paths, (real, twin)):
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    return paths


def _loadtxt_results(monkeypatch) -> list:
    """The shape np.loadtxt returned, or the exception it raised, for each call."""
    results, real = [], np.loadtxt

    def spy(*args, **kwargs):
        try:
            out = real(*args, **kwargs)
        except Exception as exc:
            results.append(type(exc))
            raise
        results.append(out.shape)
        return out

    monkeypatch.setattr(np, "loadtxt", spy)
    return results


@pytest.mark.parametrize(
    "cells",
    [{}, {BAD: "0"}, {BAD: "inf"}, {BAD - 1: "1e-300", BAD: "1e300"}],
    ids=["none", "zero", "inf", "return-overflow"],
)
def test_price_row_is_named_as_the_reference_names_it(tmp_path, monkeypatch, cells):
    path, twin = _files(tmp_path, "date,close", cells)
    want, want_exc = _outcome(reference_read_prices, twin)
    if want_exc is not None and want_exc[0] is ReturnOverflow:  # named as the fuzz expects
        line, price = _overflowing_price(twin)
        message = f"{twin}: line {line}: the return into price {price!r} is not finite"
        want_exc = (ParseError, message)
    results = _loadtxt_results(monkeypatch)
    got, got_exc = _outcome(read_prices, path)
    assert results == [(N,)]
    if want_exc is None:
        assert got_exc is None and _bits(got[0]) == _bits(want[0])
    else:
        assert got_exc == (want_exc[0], want_exc[1].replace(str(twin), str(path)))
        assert f": line {LINE}: " in got_exc[1]


@pytest.mark.parametrize("bad", [False, True], ids=["none", "nan"])
def test_series_row_is_named_as_the_reference_names_it(tmp_path, monkeypatch, bad):
    cells = {i: repr(0.01 * (i % 5 - 2)) for i in range(N)} | ({BAD: "nan"} if bad else {})
    path, twin = _files(tmp_path, "t,r", cells)
    want, want_exc = _outcome(reference_read_series_csv, twin)
    results = _loadtxt_results(monkeypatch)
    got, got_exc = _outcome(read_series_csv, path)
    assert results == [(N,)]
    if want_exc is None:
        assert got_exc is None and _bits(got) == _bits(want)
    else:
        assert got_exc == (want_exc[0], want_exc[1].replace(str(twin), str(path)))
        assert got_exc[1].endswith(f": line {LINE}: no finite return in '{BAD},nan'")
