"""The CSV reader against a per-row reference parser.

``_reference_rows`` is the row-by-row parser the package used before its
reader became columnar; the reader must accept, order and reject exactly
what it does, with the same messages and line numbers.
"""

from __future__ import annotations

import csv
import math
import os
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipbet import Bet, CsvFormatError, Face, Flip, load_bets, load_flips
from flipbet import report


def _reference_rows(path: Path, value_name: str) -> list[tuple[float, Face, int]]:
    rows: list[tuple[float, Face, int]] = []
    with path.open(newline="", encoding="utf-8") as handle:
        for line_no, row in enumerate(csv.reader(handle), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # blank line
            if len(row) != 2:
                raise CsvFormatError(
                    f"expected 2 fields (time,{value_name}), got {len(row)}",
                    path=str(path),
                    line=line_no,
                )
            time_token, face_token = row[0].strip(), row[1].strip()
            try:
                t = float(time_token)
            except ValueError:
                if line_no == 1:
                    continue  # header row: non-numeric first field
                raise CsvFormatError(
                    f"malformed time {time_token!r}", path=str(path), line=line_no
                ) from None
            if not math.isfinite(t) or t < 0.0:
                raise CsvFormatError(
                    f"time out of range (finite, >= 0): {time_token!r}",
                    path=str(path),
                    line=line_no,
                )
            try:
                face = Face(face_token.upper())
            except ValueError:
                raise CsvFormatError(
                    f"unknown face token {face_token!r} (expected 'H' or 'T')",
                    path=str(path),
                    line=line_no,
                ) from None
            rows.append((t, face, line_no))
    rows.sort(key=lambda r: r[0])  # stable: equal times keep file order
    return rows


def _reference_flips(path: Path) -> list[Flip]:
    rows = _reference_rows(path, "outcome")
    for prev, cur in zip(rows, rows[1:]):
        if prev[0] == cur[0]:
            raise CsvFormatError(f"duplicate flip time {cur[0]!r}", path=str(path), line=cur[2])
    return [Flip(t, face) for t, face, _ in rows]


def _outcome(read, path: Path):
    """A reader's result, or its error's message and line."""
    try:
        return read(path)
    except CsvFormatError as err:
        return ("error", str(err), err.line)


pads = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def time_fields(draw) -> str:
    whole = draw(st.integers(0, 12)) * draw(st.sampled_from([1, 1000]))
    text = draw(
        st.sampled_from(
            [str(whole), f"{whole}.0", f"{whole / 4!r}", f"{whole:_}", f"{whole}e0"]
        )
    )
    return draw(pads) + text + draw(pads)


@st.composite
def face_fields(draw) -> str:
    return draw(pads) + draw(st.sampled_from(["H", "T", "h", "t"])) + draw(pads)


# Rows that break the format, each in its own way.
BAD_ROWS = [
    ["0.5", "H", "x"],  # three fields
    ["0.5"],  # one field
    ["abc", "H"],  # malformed time (a header anywhere but line 1)
    ["-0.5", "T"],  # negative time
    ["nan", "H"],  # not finite
    [" inf ", "T"],  # not finite
    ["1e999", "H"],  # overflows to inf
    ["0.5", " X "],  # unknown face
    ["0.5", ""],  # empty face
]


@st.composite
def log_files(draw, max_rows: int = 40, bad: bool = False) -> str:
    rows = [
        [draw(time_fields()), draw(face_fields())]
        for _ in range(draw(st.integers(0, max_rows)))
    ]
    if bad:
        for _ in range(draw(st.integers(1, 3))):
            rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(BAD_ROWS)))
    lines = []
    for row in rows:
        quoted = [f'"{field}"' if draw(st.booleans()) else field for field in row]
        lines.append(",".join(quoted))
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "   "])))  # blank line
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(["time,face", '"time","face"', "t,  x"])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + (newline if draw(st.booleans()) else "")


def _check_against_reference(tmp_path: Path, text: str) -> None:
    path = tmp_path / "log.csv"
    path.write_bytes(text.encode("utf-8"))
    expected_bets = _outcome(
        lambda p: [Bet(t, face) for t, face, _ in _reference_rows(p, "prediction")], path
    )
    assert _outcome(load_bets, path) == expected_bets
    expected_flips = _outcome(_reference_flips, path)
    assert _outcome(load_flips, path) == expected_flips
    columns = _outcome(lambda p: report._read_log(p, "prediction"), path)
    if isinstance(expected_bets, list):
        times, heads = columns
        assert times.tolist() == [b.time for b in expected_bets]
        assert heads.tolist() == [b.prediction is Face.HEADS for b in expected_bets]
    else:
        assert columns == expected_bets


@settings(max_examples=150, deadline=None)
@given(text=log_files())
def test_reader_matches_reference_on_valid_logs(tmp_path_factory, text):
    _check_against_reference(tmp_path_factory.mktemp("log"), text)


@settings(max_examples=150, deadline=None)
@given(text=log_files(bad=True))
def test_reader_reports_the_references_first_error(tmp_path_factory, text):
    _check_against_reference(tmp_path_factory.mktemp("log"), text)


# One test per error, each pinned to the message and line of the per-row parser.
@pytest.mark.parametrize(
    "text,line,message",
    [
        ("0.0,H\n0.5,T,x\n", 2, "expected 2 fields (time,outcome), got 3"),
        ("time,outcome\n0.0,H\n\n0.5 x,T\n", 4, "malformed time '0.5 x'"),
        ("0.0,H\n inf ,T\n", 2, "time out of range (finite, >= 0): 'inf'"),
        ("0.0,H\n0.5,T\n-1_0,H\n", 3, "time out of range (finite, >= 0): '-1_0'"),
        ("0.0,H\n0.5, x \n", 2, "unknown face token 'x' (expected 'H' or 'T')"),
        ("0.5,H\n0.0,T\n0.25,H\n0.0,h\n", 4, "duplicate flip time 0.0"),
    ],
    ids=["field-count", "malformed-time", "not-finite", "negative", "unknown-face", "duplicate"],
)
def test_each_error_keeps_its_message_and_line(tmp_path, text, line, message):
    path = tmp_path / "flips.csv"
    path.write_text(text)
    with pytest.raises(CsvFormatError) as err:
        load_flips(path)
    assert err.value.line == line
    assert str(err.value) == f"{path}:{line}: {message}"
    assert _outcome(_reference_flips, path) == ("error", str(err.value), line)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize(
    "text,message",
    [
        ("0,H\n-1,T\n", "time out of range (finite, >= 0): '-1'"),
        ("0,H\ninf,T\n", "time out of range (finite, >= 0): 'inf'"),
        ("0,H\n1,X\n", "unknown face token 'X' (expected 'H' or 'T')"),
    ],
)
def test_a_log_that_can_be_read_only_once_reports_its_error(tmp_path, text, message):
    # A pipe (``--bets /dev/stdin``, ``--bets <(cmd)``) is used up by one
    # read; opening it again would wait for a writer that never comes.
    path = tmp_path / "bets.fifo"
    os.mkfifo(path)
    errors = []

    def read() -> None:
        try:
            load_bets(path)
        except CsvFormatError as err:
            errors.append(err)

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    path.write_text(text)  # returns once the reader has opened the pipe
    reader.join(timeout=10)
    assert not reader.is_alive(), "the reader opened the log a second time"
    assert [str(err) for err in errors] == [f"{path}:2: {message}"]
