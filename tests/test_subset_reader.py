"""The subset reader on logs that span several of its 64 KiB blocks.

``report._subset_columns`` reads a log in the common subset one block at a
time. Each log here is checked against the per-row reader
(``report._read_rows``: times, faces and lines, or its error), and every
time against Python's ``float()`` bit for bit. Rows sit at block edges: the
last row of a block ends on its last byte, and the next row opens the next
block. A block whose rows share one width takes a byte-matrix path; the
tests at the end check that it reads what the per-row reader reads, and
which blocks take it.
"""

from __future__ import annotations

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipbet import CsvFormatError, load_bets
from flipbet import report

BLOCK = report._BLOCK_BYTES

# Times for the block edges, each valid in the subset.
EDGE_TIMES = [
    "123456789012345",  # 15 significant digits: the integer-mantissa path
    "1234567890123456",  # 16: the long rows' strtod pass
    "12345678901234567",  # 17
    "9007199254740993",  # 2**53 + 1, which rounds to even
    "1.23456789012345",  # 15 digits with a dot
    "1.234567890123456",  # 16 digits with a dot
    "0.123456789012345",  # 15 fraction digits
    "999999999999999.9",  # 16 digits, the dot last but one
    "000000000000042.5",  # leading zeros: 16 digits, 3 significant
    "00000000000000000000000007",  # leading zeros only
    "0.000000000000001",  # 15 fraction digits, 1 significant
    "0.100000000000000000000000000001",  # 30 fraction digits
    "0",
    "5.5",
]


def _filler(size: int, newline: str, face: str = "H") -> list[str]:
    """Subset rows of 7- to 16-digit integer times, exactly ``size`` bytes in all."""
    width = 9 + len(newline)  # a 7-digit time, a comma, a face and a line end
    count, extra = divmod(size, width)
    assert count >= 1, size
    rows = [f"{1000000 + i},{face}{newline}" for i in range(count - 1)]
    return rows + [f"{'4' * (7 + extra)},T{newline}"]


def _edge_log(edges: list[str], newline: str, header: bool) -> str:
    """A log of len(edges) // 2 whole blocks after an optional header: block
    i opens with row ``edges[2 * i]`` and ends with row ``edges[2 * i + 1]``
    on its last byte, so a cut falls between two edge rows."""
    text = "time,prediction" + newline if header else ""
    rows = [f"{time},{'HT'[i % 2]}{newline}" for i, time in enumerate(edges)]
    for first, last in zip(rows[::2], rows[1::2]):
        text += first + "".join(_filler(BLOCK - len(first) - len(last), newline)) + last
    return text


def _check(tmp_path: Path, data: bytes) -> tuple[np.ndarray, np.ndarray, range]:
    """The subset reader's columns, checked against the per-row reader and
    against ``float()`` of each row's time token."""
    columns = report._subset_columns(data)
    assert columns is not None
    times, heads, lines = columns
    path = tmp_path / "bets.csv"
    path.write_bytes(data)
    expected_times, expected_heads, expected_lines = report._read_rows(path, data, "prediction")
    assert times.view(np.uint64).tolist() == expected_times.view(np.uint64).tolist()
    assert heads.tolist() == expected_heads.tolist()
    assert list(lines) == expected_lines
    tokens = [line.split(",")[0] for line in data.decode().splitlines()]
    tokens = [tokens[line - 1] for line in lines]
    assert [t.hex() for t in times.tolist()] == [float(token).hex() for token in tokens]
    return columns


@pytest.mark.parametrize("header", [False, True], ids=["no-header", "header"])
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_rows_at_block_edges_match_float(tmp_path, newline, header):
    text = _edge_log(EDGE_TIMES, newline, header)
    data = text.encode()
    assert len(data) >= len(EDGE_TIMES) // 2 * BLOCK
    times, _, lines = _check(tmp_path, data)
    assert len(times) == len(text.splitlines()) - header
    assert lines[0] == 1 + header


def test_the_last_row_without_a_line_end_closes_the_last_block(tmp_path):
    text = _edge_log(EDGE_TIMES[:6], "\r\n", header=True)
    data = text.encode().removesuffix(b"\r\n")
    times, _, _ = _check(tmp_path, data)
    assert times[-1] == float(EDGE_TIMES[5])


def test_a_row_longer_than_a_block_is_its_own_block(tmp_path):
    long_time = "0" * (BLOCK + 1000) + "1234.5"
    rows = _filler(BLOCK, "\n") + [f"{long_time},T\n"] + _filler(2 * BLOCK, "\n", "T")
    data = ("time,prediction\n" + "".join(rows)).encode()
    times, heads, _ = _check(tmp_path, data)
    i = len(_filler(BLOCK, "\n"))
    assert times[i] == 1234.5 and not heads[i]


def test_a_long_fraction_beside_short_rows_in_one_block(tmp_path):
    # A row of 30 fraction digits is too long for an int64 mantissa: it is
    # read by the long rows' strtod pass and its neighbours keep the
    # integer-mantissa path.
    fraction = "0.123456789012345678901234567891"
    rows = ["7,H\n", "8.25,T\n", f"{fraction},H\n", "999999999999999,T\n", "0.5,H\n"]
    times, _, _ = _check(tmp_path, "".join(rows).encode())
    assert times.tolist() == [7.0, 8.25, float(fraction), 999999999999999.0, 0.5]


def test_a_log_of_float_reprs_reads_what_float_reads(tmp_path):
    # Times written as repr(float) have 16 or 17 significant digits, so
    # every row of every block goes through the long rows' pass, mixed with
    # the few shorter reprs that keep the integer-mantissa path.
    rng = np.random.default_rng(5)
    times = np.cumsum(rng.random(3 * BLOCK // 20))
    rows = [f"{t!r},{'HT'[i % 3 == 0]}\n" for i, t in enumerate(times.tolist())]
    data = "".join(rows).encode()
    assert len(data) > 2 * BLOCK
    read, _, _ = _check(tmp_path, data)
    assert read.view(np.uint64).tolist() == times.view(np.uint64).tolist()


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_a_bad_row_in_the_last_block_is_the_per_row_readers_error(tmp_path, newline):
    data = (_edge_log(EDGE_TIMES[:6], newline, header=True) + f"1.5,X{newline}").encode()
    assert len(data) > 3 * BLOCK
    assert report._subset_columns(data) is None
    line = data.count(b"\n")
    path = tmp_path / "bets.csv"
    path.write_bytes(data)
    with pytest.raises(CsvFormatError) as err:
        load_bets(path)
    assert err.value.line == line
    assert str(err.value) == f"{path}:{line}: unknown face token 'X' (expected 'H' or 'T')"


OUTSIDE_SUBSET_ROWS = [
    "1.2.3,H",  # two dots
    "1..2,H",
    "5.,H",  # no digit after the dot
    ".5,H",  # no digit before it
    ",H",  # empty time
    "1e3,H",
    "1_000,H",
    "-1,H",
    " 1,H",
    "1,x",  # one bit from a lowercase face
    "1,HH",
    "1,H,H",
    "1\r,H",  # a lone CR
    "1,é",
    "",  # blank line
]


@pytest.mark.parametrize("place", ["opens-a-block", "ends-the-log"])
@pytest.mark.parametrize("row", OUTSIDE_SUBSET_ROWS)
def test_one_row_outside_the_subset_anywhere_leaves_the_log_to_the_per_row_reader(row, place):
    good = _edge_log(EDGE_TIMES[:6], "\n", header=True)
    if place == "opens-a-block":  # the second block's first row
        cut = good.index("\n", len("time,prediction\n") + BLOCK - 2) + 1
        text = good[:cut] + row + "\n" + good[cut:]
    else:
        text = good + row + "\n"
    assert report._subset_columns(text.encode()) is None


def test_an_overflowing_row_in_the_last_block_leaves_the_log_to_the_per_row_reader(tmp_path):
    data = (_edge_log(EDGE_TIMES[:6], "\n", header=False) + "9" * 400 + ",H\n").encode()
    assert report._subset_columns(data) is None
    path = tmp_path / "bets.csv"
    path.write_bytes(data)
    with pytest.raises(CsvFormatError) as err:
        load_bets(path)
    assert err.value.line == data.count(b"\n")
    assert "time out of range" in str(err.value)


def _read_in_blocks(tmp_path: Path, monkeypatch, blocks: list[list[str]]) -> np.ndarray:
    """Read a log whose subset blocks are exactly ``blocks``, each padded
    with a filler row to 48 bytes; the times, checked as :func:`_check` does."""
    size = 48
    texts = []
    for rows in blocks:
        room = size - len("".join(rows)) - len(",T\n")
        texts.append("".join(rows) + "4" * room + ",T\n")
    monkeypatch.setattr(report, "_BLOCK_BYTES", size)
    parsed = []
    parse = report._subset_block

    def spy(block: bytes, *columns: np.ndarray) -> int | None:
        parsed.append(block.decode())
        return parse(block, *columns)

    monkeypatch.setattr(report, "_subset_block", spy)
    times, _, _ = _check(tmp_path, "".join(texts).encode())
    assert parsed == texts
    return times


def test_a_one_digit_row_opens_a_block_after_a_fifteen_digit_row(tmp_path, monkeypatch):
    # The first row's digit columns above its one digit are clamped to the
    # block's last LF, never to the previous block's bytes.
    blocks = [
        ["5,H\n", "123456789012345,T\n"],
        ["7,T\n", "987654321098765,H\n"],
        ["8,H\n", "100000000000000,T\n"],
    ]
    times = _read_in_blocks(tmp_path, monkeypatch, blocks)
    assert times[::3].tolist() == [5.0, 7.0, 8.0]


def test_a_dotted_row_opens_a_block(tmp_path, monkeypatch):
    blocks = [
        ["7,H\n", "123456789012345,T\n"],
        ["1.23456789012345,H\n", "3,T\n"],
        ["9.5,T\n", "0.000000000000001,H\n"],
        ["0.5,H\n", "2,T\n", "98765432109.5,H\n"],
    ]
    times = _read_in_blocks(tmp_path, monkeypatch, blocks)
    assert times[[3, 6, 9]].tolist() == [1.23456789012345, 9.5, 0.5]


def test_a_sixteen_digit_row_beside_one_digit_rows(tmp_path, monkeypatch):
    # The 16-digit rows go to the long rows' pass; their one-digit
    # neighbours keep the integer-mantissa path.
    blocks = [
        ["1,H\n", "1234567890123456,T\n", "2,H\n"],
        ["9007199254740993,H\n", "3,T\n"],
        ["4,H\n", "5,T\n", "123456789012345.6,H\n", "6,T\n"],
    ]
    times = _read_in_blocks(tmp_path, monkeypatch, blocks)
    assert times[[0, 2, 5, 7, 8, 10]].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    assert times[[1, 4, 9]].tolist() == [1234567890123456.0, 9007199254740992.0, 123456789012345.6]


@st.composite
def subset_times(draw) -> str:
    whole = draw(st.text("0123456789", min_size=1, max_size=20))
    if draw(st.booleans()):
        return whole
    return f"{whole}.{draw(st.text('0123456789', min_size=1, max_size=20))}"


@settings(max_examples=100, deadline=None)
@given(
    times=st.lists(subset_times(), min_size=1, max_size=40),
    faces=st.data(),
    block=st.integers(1, 48),
    newline=st.sampled_from(["\n", "\r\n"]),
    final_newline=st.booleans(),
)
def test_any_block_size_reads_what_float_reads(
    tmp_path_factory, times, faces, block, newline, final_newline
):
    # Blocks of a few bytes put a cut after nearly every row, and rows
    # longer than the block exercise blocks of one row.
    rows = [f"{t},{faces.draw(st.sampled_from('HT'))}" for t in times]
    data = (newline.join(rows) + (newline if final_newline else "")).encode()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report, "_BLOCK_BYTES", block)
        _check(tmp_path_factory.mktemp("log"), data)


def test_temporaries_are_bounded_by_the_block(tmp_path):
    # About 8 MB of log: a pass over the whole log would allocate at least
    # one temporary of its size, past the output columns and the allowance.
    rows = 700_000
    rng = np.random.default_rng(11)
    times = np.sort(rng.integers(0, 10**9, rows)).tolist()
    faces = rng.choice(["H", "T"], rows).tolist()
    data = ("time,prediction\n" + "".join(f"{t},{f}\n" for t, f in zip(times, faces))).encode()
    assert len(data) > 8_000_000
    tracemalloc.start()
    try:
        columns = report._subset_columns(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert columns is not None
    output = columns[0].nbytes + columns[1].nbytes
    assert output == 9 * rows
    assert peak < output + (2 << 20)
    assert columns[0].tolist() == [float(t) for t in times]


# -- blocks whose rows share one width: the byte-matrix path

SUBSET_ROW = re.compile(rb"[0-9]+(\.[0-9]+)?,[HTht]")


@st.composite
def same_width_logs(draw) -> bytes:
    """A log whose rows share one width of 4 to 19 bytes with LF, so 1 to
    16 digits, with one byte after line 1 optionally replaced."""
    width = draw(st.one_of(st.sampled_from([18, 19]), st.integers(4, 19)))
    count = draw(st.integers(1, 60))
    times = st.text("0123456789", min_size=width - 3, max_size=width - 3)
    rows = [f"{draw(times)},{draw(st.sampled_from('HThT'))}" for _ in range(count)]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    if draw(st.booleans()):
        rows.insert(0, "time,prediction")
    data = bytearray((newline.join(rows) + draw(st.sampled_from(["", newline]))).encode())
    line_2 = data.find(b"\n") + 1
    if line_2 and line_2 < len(data) and draw(st.booleans()):
        at = draw(st.integers(line_2, len(data) - 1))
        data[at] = ord(draw(st.sampled_from(". x-ht")))
    return bytes(data)


@settings(max_examples=300, deadline=None)
@given(data=same_width_logs(), block=st.integers(1, 100))
def test_same_width_logs_read_what_the_per_row_reader_reads(tmp_path_factory, data, block):
    # A log is in the subset iff every row after a header matches the
    # subset's row; line 1 is never altered, so it is a header or a row.
    rows = [line.removesuffix(b"\r") for line in data.removesuffix(b"\n").split(b"\n")]
    if rows[0] == b"time,prediction":
        rows = rows[1:]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report, "_BLOCK_BYTES", block)
        if all(SUBSET_ROW.fullmatch(row) for row in rows):
            _check(tmp_path_factory.mktemp("log"), data)
        else:
            assert report._subset_columns(data) is None


def _matrix_results(monkeypatch, data: bytes) -> list[int | None]:
    """Read ``data``; what the matrix path returned for each block."""
    results = []
    parse = report._same_width_block

    def spy(block: bytes, *columns: np.ndarray) -> int | None:
        results.append(parse(block, *columns))
        return results[-1]

    monkeypatch.setattr(report, "_same_width_block", spy)
    assert report._subset_columns(data) is not None
    return results


def test_a_sorted_integer_log_takes_the_matrix_path(tmp_path, monkeypatch):
    # Unix seconds through one year: every row has 10 digits. Faces come in
    # either case, and both take the matrix path.
    rows = 100_000
    rng = np.random.default_rng(17)
    times = np.sort(rng.integers(1_672_531_200, 1_704_067_200, rows)).tolist()
    faces = rng.choice(["H", "T", "h", "t"], rows).tolist()
    data = ("time,outcome\n" + "".join(f"{t},{f}\n" for t, f in zip(times, faces))).encode()
    results = _matrix_results(monkeypatch, data)
    assert len(results) >= len(data) // BLOCK
    assert sum(r is not None for r in results) >= 0.95 * len(results)
    _check(tmp_path, data)


@pytest.mark.parametrize(
    "rows",
    [
        ["0,T\n"] + [f"{t},H\n" for t in range(1628, 20_000, 7)],  # widths 4, 7 and 8
        ["1,H\n", "12345,T\n", "1,H\n"],  # 16 bytes: a multiple of the first width
        ["123,H\n", "1.5,T\n", "345,h\n"],  # one width, but a dot
        ["9007199254740993,H\n", "1234567890123456,T\n"],  # 16 digits: past 2**53
    ],
    ids=["growing-widths", "first-and-last-rows-alike", "dotted", "sixteen-digits"],
)
def test_a_block_outside_the_matrix_path_takes_the_digit_columns(tmp_path, monkeypatch, rows):
    data = "".join(rows).encode()
    results = _matrix_results(monkeypatch, data)
    assert results and all(r is None for r in results)
    _check(tmp_path, data)


@pytest.mark.parametrize("data", [b",H\n,T\n", b"H\nT\n"], ids=["empty-times", "faces-only"])
def test_rows_of_one_width_too_short_for_a_time_are_outside_the_subset(data):
    assert report._subset_columns(data) is None
