"""The CSV reader against a per-row reference parser.

``_reference_rows`` is the row-by-row parser the package used before its
reader became columnar; the reader must accept, order and reject exactly
what it does, with the same messages and line numbers. Logs in the common
subset of the grammar take the reader's path without a per-row loop, every
other log its per-row path; both are checked against the reference.
"""

from __future__ import annotations

import codecs
import csv
import json
import math
import os
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flipbet import Bet, CsvFormatError, Face, Flip, load_bets, load_flips
from flipbet import report
from flipbet.cli import main


def _quoted(token: str) -> str:
    """A token as an error message quotes it: its repr, cut after 32 characters."""
    return repr(token) if len(token) <= 32 else f"{token[:32]!r}... ({len(token)} characters)"


def _reference_rows(path: Path, value_name: str) -> list[tuple[float, Face, int]]:
    # A log that is not UTF-8 fails on its first bad byte before any row is
    # read, found here line by line: a line end is ASCII, so no UTF-8
    # sequence spans two lines.
    for line, text in enumerate(path.read_bytes().splitlines(keepends=True), start=1):
        try:
            text.decode("utf-8")
        except UnicodeDecodeError as err:
            problem = f"not UTF-8: byte 0x{text[err.start]:02x} ({err.reason})"
            raise CsvFormatError(problem, path=str(path), line=line) from None
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
                    f"malformed time {_quoted(time_token)}", path=str(path), line=line_no
                ) from None
            if not math.isfinite(t) or t < 0.0:
                raise CsvFormatError(
                    f"time out of range (finite, >= 0): {_quoted(time_token)}",
                    path=str(path),
                    line=line_no,
                )
            try:
                face = Face(face_token.upper())
            except ValueError:
                raise CsvFormatError(
                    f"unknown face token {_quoted(face_token)} (expected 'H' or 'T')",
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


def _check_against_reference(tmp_path: Path, text: str | bytes) -> None:
    path = tmp_path / "log.csv"
    path.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
    expected_bets = _outcome(
        lambda p: [Bet(t, face) for t, face, _ in _reference_rows(p, "prediction")], path
    )
    assert _outcome(load_bets, path) == expected_bets
    expected_flips = _outcome(_reference_flips, path)
    assert _outcome(load_flips, path) == expected_flips
    columns = _outcome(lambda p: report._read_log(p, Bet), path)
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


# -- the common subset: rows digits[.digits],H|T; LF or CRLF; optional header

DIGITS = "0123456789"


@st.composite
def subset_times(draw) -> str:
    whole = draw(
        st.one_of(
            st.integers(0, 12).map(str),
            st.integers(0, 10**30).map(str),
            st.text(DIGITS, min_size=1, max_size=25),  # leading zeros too
            st.sampled_from(["9007199254740993", "179769313486231570" + "0" * 291]),
        )
    )
    if draw(st.booleans()):
        return whole
    if draw(st.booleans()):
        fraction = draw(st.text(DIGITS, min_size=1, max_size=30))
    else:
        # A double's digits, then digits that put the value at, just below or
        # just above a rounding boundary.
        fraction = f"{draw(st.floats(0.0, 1.0)):.17f}"[2:] + draw(st.sampled_from(["", "5", "49", "51"]))
    return f"{whole}.{fraction}"


@st.composite
def subset_logs(draw) -> str:
    rows = [
        [draw(subset_times()), draw(st.sampled_from("HT"))]
        for _ in range(draw(st.integers(0, 30)))
    ]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):  # equal (duplicate) times
        twin = [draw(st.sampled_from(rows))[0], draw(st.sampled_from("HT"))]
        rows.insert(draw(st.integers(0, len(rows))), twin)
    lines = [",".join(row) for row in rows]
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(["time,prediction", "t,  x", ",face", "1x,H"])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + (newline if lines and draw(st.booleans()) else "")


@settings(max_examples=300, deadline=None)
@given(text=subset_logs())
def test_subset_logs_take_the_fast_path_and_match_the_reference(tmp_path_factory, text):
    assert report._subset_columns(text.encode()) is not None
    _check_against_reference(tmp_path_factory.mktemp("log"), text)


SUBSET_LOG = "time,prediction\n0,H\n2.5,T\n2.5,H\n1,T\n"


# The subset log above with exactly one form outside the subset.
OUTSIDE_SUBSET = {
    "quoted-time": '0,H\n"2.5",T\n1,T\n',
    "quoted-face": '0,H\n2.5,"T"\n1,T\n',
    "quoted-header": '"time","prediction"\n0,H\n2.5,T\n1,T\n',
    "padded-time": "0,H\n 2.5,T\n1,T\n",
    "padded-face": "0,H\n2.5,T \n1,T\n",
    "tab": "0,H\n2.5\t,T\n1,T\n",
    "blank-line": "0,H\n\n2.5,T\n1,T\n",
    "whitespace-line": "0,H\n   \n2.5,T\n1,T\n",
    "underscore": "0,H\n1_000,T\n1,T\n",
    "exponent": "0,H\n1e3,T\n1,T\n",
    "leading-dot": "0,H\n.5,T\n1,T\n",
    "leading-dot-on-line-1": ".5,H\n1,T\n",
    "arabic-indic-digit-on-line-1": "\u0661,H\n2.5,T\n1,T\n",  # float() reads it: a row
    "trailing-dot": "0,H\n5.,T\n1,T\n",
    "nan": "0,H\nnan,T\n1,T\n",
    "inf": "0,H\ninf,T\n1,T\n",
    "overflow": "0,H\n" + "9" * 400 + ",T\n1,T\n",
    "negative": "0,H\n-1,T\n1,T\n",
    "bom": "\ufefftime,prediction\n0,H\n2.5,T\n1,T\n",
    "invalid-utf8": b"0,H\n2.5,T\xff\n1,T\n",
    "lone-cr": "0,H\r2.5,T\r1,T\r",
    "mixed-cr": "0,H\r\n2.5,T\r1,T\n",
    "header-on-line-2": "0,H\ntime,prediction\n1,T\n",
    "header-one-field": "time\n0,H\n1,T\n",
    "three-fields": "0,H\n2.5,T,x\n1,T\n",
    "one-field": "0,H\n2.5\n1,T\n",
    "unknown-face": "0,H\n2.5,X\n1,T\n",
    "digit-before-face": "0,H\n2.5,1T\n1,T\n",
    "digit-after-face": "0,H\n2.5,T1\n1,T\n",
    "empty-time": "0,H\n,T\n1,T\n",
    "empty-time-after-header": "time,prediction\n,T\n1,T\n",
    "cr-before-crlf": "0,H\r\r\n1,T\r\n",
    "duplicate-flip-time-bad-row": "1,H\n1,T\n2,Q\n",
}


def test_subset_log_takes_the_fast_path():
    assert report._subset_columns(SUBSET_LOG.encode()) is not None


@pytest.mark.parametrize("text", OUTSIDE_SUBSET.values(), ids=OUTSIDE_SUBSET)
def test_each_form_outside_the_subset_goes_to_the_per_row_reader(tmp_path, text):
    data = text.encode("utf-8") if isinstance(text, str) else text
    assert report._subset_columns(data) is None
    _check_against_reference(tmp_path, data)


# Forms once outside the subset and now in it: lowercase faces and a header
# in any script, each in a block of mixed widths and in one of a single width.
IN_SUBSET = {
    "lowercase-face": "0,H\n2.5,t\n1,T\n",
    "lowercase-same-width": "time,prediction\n10,h\n12,t\n11,T\n",
    "non-ascii-header": "zeit,münze\n0,H\n2.5,T\n1,T\n",
    "han-header-crlf": "时间,预测\r\n0,H\r\n2.5,T\r\n1,T\r\n",
    "arabic-header-same-width": "الوقت,التنبؤ\n10,H\n12,T\n11,T\n",
}


@pytest.mark.parametrize("text", IN_SUBSET.values(), ids=IN_SUBSET)
def test_each_form_in_the_subset_takes_the_fast_path_and_matches_the_reference(tmp_path, text):
    assert report._subset_columns(text.encode()) is not None
    _check_against_reference(tmp_path, text)


# Any character, with those the header rule turns on drawn more often.
line_1_texts = st.text(
    st.one_of(st.characters(), st.sampled_from(',"\r 1.e\t\x00\xa0\u0661\ufeff\u2028'))
)


@settings(max_examples=300, deadline=None)
@given(
    line_1=st.one_of(line_1_texts, st.builds("{},{}".format, line_1_texts, line_1_texts)),
    rows=st.lists(st.tuples(subset_times(), st.sampled_from("HTht")), max_size=10),
    newline=st.sampled_from(["\n", "\r\n"]),
)
@example(line_1='"1",h', rows=[("2", "T")], newline="\n")  # quoted: a row, not a header
@example(line_1="a\rb,c", rows=[("2", "T")], newline="\n")  # a CR ends line 1 at "a"
def test_any_line_1_read_by_the_subset_path_is_what_the_per_row_reader_reads(
    tmp_path_factory, line_1, rows, newline
):
    # Line 1 in any script, then subset rows: whenever the subset path reads
    # the log, it reads the per-row reader's times, faces and lines.
    data = newline.join([line_1, *(f"{time},{face}" for time, face in rows)]).encode()
    columns = report._subset_columns(data)
    if columns is not None:
        path = tmp_path_factory.mktemp("log") / "bets.csv"
        path.write_bytes(data)
        times, heads, lines = columns
        expected_times, expected_heads, expected_lines = report._read_rows(path, data, "prediction")
        assert times.view(np.uint64).tolist() == expected_times.view(np.uint64).tolist()
        assert heads.tolist() == expected_heads.tolist()
        assert list(lines) == expected_lines


# A UTF-8 byte order mark is not part of line 1: a log reads the same with
# one as without, by the subset reader or the per-row reader.
BOM_LOGS = {
    "subset-header": ("time,prediction\n0,H\n2.5,T\n1,T\n", True),
    "subset-no-header": ("1,H\n6,H\n7,T\n", True),
    "per-row-header": ('time,prediction\n0,"H"\n2.5,T\n1,T\n', False),
    "per-row-no-header": ('1,"H"\n6,H\n7,T\n', False),
}


@pytest.mark.parametrize("text,subset", BOM_LOGS.values(), ids=BOM_LOGS)
def test_a_byte_order_mark_is_not_part_of_line_1(tmp_path, monkeypatch, text, subset):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(codecs.BOM_UTF8 + text.encode())
    assert (report._subset_columns(text.encode()) is not None) == subset
    if subset:
        monkeypatch.setattr(report, "_read_rows", None)  # the subset reader alone reads it
    for record in (Flip, Bet):
        expected = report._read_log(plain, record)
        columns = report._read_log(marked, record)
        assert [c.tolist() for c in columns] == [c.tolist() for c in expected]


def test_a_byte_order_mark_keeps_line_numbers(tmp_path):
    path = tmp_path / "log.csv"
    path.write_bytes(codecs.BOM_UTF8 + b"0,H\n1,X\n")
    assert _outcome(load_bets, path) == (
        "error",
        f"{path}:2: unknown face token 'X' (expected 'H' or 'T')",
        2,
    )


def test_the_cli_counts_the_first_bet_after_a_byte_order_mark(tmp_path, capsys):
    flips, bets = tmp_path / "flips.csv", tmp_path / "bets.csv"
    flips.write_bytes(codecs.BOM_UTF8 + b"0,H\n5,T\n")
    bets.write_bytes(codecs.BOM_UTF8 + b"1,H\n6,H\n7,T\n")
    assert main(["analyze", "--flips", str(flips), "--bets", str(bets), "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert (result["bet_count"], result["flip_count"]) == (3, 2)


# Each log outside the subset, and each bad row in a small log, as either
# log of ``flipbet analyze``: the CLI accepts it or names the problem.
CLI_LOGS = {
    **OUTSIDE_SUBSET,
    **IN_SUBSET,
    **{f"bad-row-{i}": "0,H\n" + ",".join(row) + "\n1,T\n" for i, row in enumerate(BAD_ROWS)},
}


@pytest.mark.parametrize("role", ["--flips", "--bets"])
@pytest.mark.parametrize("text", CLI_LOGS.values(), ids=CLI_LOGS)
def test_the_cli_reads_any_log_without_a_traceback(tmp_path, capsys, text, role):
    log, other = tmp_path / "log.csv", tmp_path / "other.csv"
    log.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
    other.write_text("0,H\n2,T\n")
    paths = {"--flips": other, "--bets": other, role: log}
    argv = ["analyze", "--flips", str(paths["--flips"]), "--bets", str(paths["--bets"])]
    assert main(argv) in (0, 2)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "data,line,problem",
    [
        (b"1,H\n\xff\xfe,H\n", 2, "byte 0xff (invalid start byte)"),
        (b"0,H\r\n1,T\r2,\xe2\x82", 3, "byte 0xe2 (unexpected end of data)"),
        (b"0,H\n" * 5000 + b"1,\xc3(\n", 5001, "byte 0xc3 (invalid continuation byte)"),
        (b"0,H\n1,X\n" + b"2,H\n" * 5000 + b"3,\xff\n", 5003, "byte 0xff (invalid start byte)"),
    ],
    ids=["second-line", "cr-line-ends", "past-the-first-chunk", "after-a-bad-face"],
)
def test_a_log_that_is_not_utf8_is_a_usage_error_on_its_line(tmp_path, capsys, data, line, problem):
    flips, bets = tmp_path / "flips.csv", tmp_path / "bets.csv"
    flips.write_text("0,H\n")
    bets.write_bytes(data)
    assert main(["analyze", "--flips", str(flips), "--bets", str(bets)]) == 2
    assert capsys.readouterr().err == f"error: {bets}:{line}: not UTF-8: {problem}\n"


# The csv module stops at a field over its limit (128 KiB by default), so the
# per-row reader reports such a row on its line; the subset path has no limit.
LONG_FIELD = 200_000


@pytest.mark.parametrize(
    "text,line",
    [("0,H\n " + "0" * LONG_FIELD + "1,T\n", 2), ("0,H\n\n1," + "H" * LONG_FIELD + "\n", 3)],
    ids=["padded-time", "face"],
)
def test_a_field_over_the_csv_limit_is_an_error_on_its_line(tmp_path, text, line):
    path = tmp_path / "bets.csv"
    path.write_text(text)
    with pytest.raises(CsvFormatError) as err:
        load_bets(path)
    assert err.value.line == line
    assert str(err.value) == f"{path}:{line}: field larger than field limit ({csv.field_size_limit()})"


def test_the_subset_path_reads_an_unpadded_time_over_the_csv_limit(tmp_path):
    path = tmp_path / "bets.csv"
    path.write_text("0,H\n" + "0" * LONG_FIELD + "1,T\n")
    assert load_bets(path) == [Bet(0.0, Face.HEADS), Bet(1.0, Face.TAILS)]


# Under the csv module's field limit, so the per-row reader gets to the token.
LONG_TOKEN = 100_000
SHOWN = f"... ({LONG_TOKEN} characters)"


@pytest.mark.parametrize(
    "row,problem",
    [
        ("1," + "h" * LONG_TOKEN, f"unknown face token {'h' * 32!r}{SHOWN} (expected 'H' or 'T')"),
        ("x" * LONG_TOKEN + ",T", f"malformed time {'x' * 32!r}{SHOWN}"),
        ("-" + "9" * (LONG_TOKEN - 1) + ",T", f"time out of range (finite, >= 0): {'-' + '9' * 31!r}{SHOWN}"),
    ],
    ids=["face", "malformed-time", "time-out-of-range"],
)
def test_a_long_token_is_quoted_by_its_first_32_characters_and_length(tmp_path, row, problem):
    path = tmp_path / "bets.csv"
    path.write_text(f"0,H\n{row}\n")
    with pytest.raises(CsvFormatError) as err:
        load_bets(path)
    assert str(err.value) == f"{path}:2: {problem}"


def _benchmark_shaped_log(n_rows: int, seed: int) -> str:
    """A header and sorted integer times, LF line ends, as the benchmark writes them."""
    rng = np.random.default_rng(seed)
    times = np.sort(rng.integers(0, 10**9, n_rows)).tolist()
    faces = rng.choice(["H", "T"], n_rows).tolist()
    return "time,prediction\n" + "".join(f"{t},{f}\n" for t, f in zip(times, faces))


def test_benchmark_shaped_log_takes_the_fast_path(tmp_path, monkeypatch):
    path = tmp_path / "bets.csv"
    path.write_text(_benchmark_shaped_log(2000, seed=3))
    expected = _reference_rows(path, "prediction")

    def no_per_row_reader(*args, **kwargs):
        raise AssertionError("the per-row reader ran")

    monkeypatch.setattr(report.csv, "reader", no_per_row_reader)
    times, heads = report._read_log(path, Bet)
    assert times.tolist() == [t for t, _, _ in expected]
    assert heads.tolist() == [face is Face.HEADS for _, face, _ in expected]


def _through_a_fifo(tmp_path: Path, text: str, read):
    """``read(path)`` on a named pipe that receives ``text`` once."""
    path = tmp_path / "log.fifo"
    os.mkfifo(path)
    results = []
    reader = threading.Thread(target=lambda: results.append(read(path)), daemon=True)
    reader.start()
    path.write_text(text)  # returns once the reader has opened the pipe
    reader.join(timeout=10)
    assert not reader.is_alive(), "the reader opened the log a second time"
    return results[0]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_subset_log_read_from_a_fifo(tmp_path):
    times, heads = _through_a_fifo(tmp_path, SUBSET_LOG, lambda p: report._read_log(p, Bet))
    assert times.tolist() == [0.0, 1.0, 2.5, 2.5]
    assert heads.tolist() == [True, False, False, True]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_simulate_reads_its_bets_from_a_fifo(tmp_path):
    argv = ["simulate", "--horizon", "3", "--flip-times", "0,2", "--seed", "5"]
    regular = tmp_path / "bets.csv"
    regular.write_text(SUBSET_LOG)
    assert main([*argv, "--bets", str(regular), "--out", str(tmp_path / "a.json")]) == 0
    out = tmp_path / "b.json"
    assert _through_a_fifo(tmp_path, SUBSET_LOG, lambda p: main([*argv, "--bets", str(p), "--out", str(out)])) == 0
    assert out.read_bytes() == (tmp_path / "a.json").read_bytes()
