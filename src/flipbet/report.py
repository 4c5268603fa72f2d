"""File ingestion and the machine-readable analysis report.

CSV input schemas (UTF-8, LF or CRLF, CSV quoting, blank lines skipped, an
optional header row on line 1 detected by a non-numeric first field; rows
are stably sorted by time):

* flips: ``time,outcome`` with outcome in {H, T}; duplicate times rejected.
* bets: ``time,prediction`` with prediction in {H, T}.

The analysis report is a single JSON object whose field names match
:class:`AnalysisReport`. Probabilities are plain decimal numbers;
:func:`analyze` rounds them to at most 12 significant digits, so that
serializing and re-parsing a report reproduces it exactly.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import json
import math
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from .errors import CsvFormatError, DomainError, ValidationError
from .game import (
    Bet,
    Face,
    Flip,
    GameConfig,
    GameTrace,
    _FACES,
    _checked,
    _integer,
    _probability,
    _records,
    _seed,
    _shown,
)
from .probability import (
    effective_event_count,
    group_by_epoch,  # noqa: F401 -- unused, but callers and tracers may look it up here
    naive_compound_probability,
    true_compound_probability,
)
from .significance import (
    _MAX_TRIALS,
    RandomizationResult,
    _randomization_tests,
    random_reproduction_pvalue,
)

__all__ = [
    "AnalysisOptions",
    "AnalysisReport",
    "load_flips",
    "load_bets",
    "analyze",
    "report_to_dict",
    "report_from_dict",
    "report_to_json",
    "report_from_json",
    "trace_to_dict",
    "trace_from_dict",
]


def _sig12(x: float) -> float:
    """Round to 12 significant digits, the report's declared precision."""
    return float(f"{x:.12g}")


@dataclass(frozen=True)
class AnalysisOptions:
    """Knobs for :func:`analyze`.

    ``randomization_trials`` switches on a per-bet randomization test with
    that many trials; per-bet seeds are derived from ``seed`` and the bet
    index.

    Raises:
        ValidationError: If ``randomization_trials`` is neither None nor an
            integer in ``[1, 2**63 - 1]``, or ``seed`` is not an integer in
            ``[0, 2**64 - 1]`` (a bool is neither).
    """

    randomization_trials: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        problems = []
        trials = self.randomization_trials
        if trials is not None:
            try:
                trials = _integer(trials, "randomization_trials", 1)
            except DomainError:
                problems.append(
                    f"randomization_trials must be None or an integer >= 1, got {_shown(trials)}"
                )
            else:
                if trials > _MAX_TRIALS:
                    problems.append(f"randomization_trials must be at most 2**63 - 1, got {trials}")
        object.__setattr__(self, "seed", _checked(problems, _seed, self.seed))
        if problems:
            raise ValidationError(problems)
        object.__setattr__(self, "randomization_trials", trials)


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the analysis pipeline knows about one betting record.

    ``naive_pvalue`` treats each bet as an independent event;
    ``corrected_pvalue`` counts only effective events (occupied epochs),
    so dependence between bets can only weaken, never strengthen, the
    evidence: a record that looks significant per bet may stop being so
    per event.
    """

    bet_count: int
    flip_count: int
    effective_events: int
    wins: int
    effective_wins: int
    naive_compound: float
    true_compound: float
    naive_pvalue: float
    corrected_pvalue: float
    randomization: tuple[RandomizationResult, ...] | None = None


def _read_log(path: str | Path, record: type[Flip] | type[Bet]) -> tuple[np.ndarray, np.ndarray]:
    """Read a flip log (``record`` is Flip) or a bet log (Bet) into (times, heads) columns.

    The file is read once, so a pipe works as a log. A leading UTF-8 byte
    order mark is dropped; it is not part of line 1. A log in the common
    subset of the grammar is parsed without a per-row loop
    (:func:`_subset_columns`); any other log goes through the per-row
    reader, the one source of error messages, which names the face column
    after the record's face field. Rows are then stably sorted by time, so
    equal times keep file order; in a flip log, equal times are an error.
    """
    path = Path(path)
    data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    columns = _subset_columns(data)
    if columns is None:
        columns = _read_rows(path, data, fields(record)[1].name)
    t, is_heads, lines = columns  # lines[i]: the line of row i
    order = None
    if (t[1:] < t[:-1]).any():
        order = np.argsort(t, kind="stable")
        t, is_heads = t[order], is_heads[order]
    if record is Flip:
        equal = t[1:] == t[:-1]
        if equal.any():
            i = int(equal.argmax()) + 1
            problem = f"duplicate flip time {t[i].item()!r}"
            line = lines[i if order is None else int(order[i])]
            raise CsvFormatError(problem, path=str(path), line=line)
    return t, is_heads


_BLOCK_BYTES = 1 << 16  # the subset reader's block: its temporaries stay in cache
_FAST_DIGITS = 15  # a time of at most 15 digits is an integer mantissa below 2**53
_POWERS_OF_TEN = 10.0 ** np.arange(_FAST_DIGITS + 1)  # exact doubles


def _subset_columns(data: bytes) -> tuple[np.ndarray, np.ndarray, range] | None:
    """The columns of a log in the common subset of the grammar, or None.

    The subset: rows ``digits[.digits],F`` with the face F one of ``H``,
    ``T``, ``h`` or ``t``, LF or CRLF line ends with the last one
    optional, and an optional header on line 1 that the per-row reader's
    own rule recognises. Such a log has none of the forms that reader
    treats specially (blank lines, quoting, padding, exponents, ``nan``...),
    so row i is the row that reader reads from line i + 1 + header.

    The log is read in blocks of 64 KiB cut at line ends (a longer row is a
    block of its own), so every temporary is bounded by the block, and the
    output columns are allocated once. In each block, numpy checks the
    subset and parses the rows one of three ways. Rows of one width and at
    most 15 digits, as sorted integer times mostly are, are a byte matrix
    whose times come from one matrix-vector product (:func:`_same_width_block`).
    A block with a time of more than 15 digits is parsed whole by numpy's
    string-to-double, which rounds as ``float()`` does; a time that
    overflows to infinity leaves the log to the per-row reader. Any other
    block is read by digit columns: a time is an integer mantissa M, summed
    one digit column at a time from the block's bytes less ``ord("0")``,
    with k digits after its dot; M and 10**k are exact doubles, so
    ``M / 10**k`` is the correctly rounded value that ``float()`` gives
    (Clinger's fast path).
    """
    end = data.find(b"\n")
    line_1 = data if end < 0 else data[:end].removesuffix(b"\r")
    header = _is_header(line_1)
    start = (len(data) if end < 0 else end + 1) if header else 0
    rows = _line_ends(data, start) + (start < len(data) and not data.endswith(b"\n"))
    times, heads = np.empty(rows), np.empty(rows, dtype=bool)
    row = 0
    while start < len(data):
        cut = data.rfind(b"\n", start, start + _BLOCK_BYTES)
        if cut < 0:
            cut = data.find(b"\n", start + _BLOCK_BYTES)
        block = data[start : cut + 1] if cut >= 0 else data[start:] + b"\n"
        start = cut + 1 if cut >= 0 else len(data)
        if b"\r" in block:  # a one-byte search is a memchr, cheaper than a replace that finds nothing
            block = block.replace(b"\r\n", b"\n")  # a lone CR is left to fail the checks
        parsed = _subset_block(block, times[row:], heads[row:])
        if parsed is None:
            return None
        row += parsed
    return times, heads, range(1 + header, 1 + header + rows)


def _line_ends(data: bytes, start: int) -> int:
    """The number of LFs in ``data[start:]``, counted by numpy one block at a
    time, so that its temporary is bounded by the block."""
    a = np.frombuffer(data, np.uint8)
    steps = range(start, len(data), _BLOCK_BYTES)
    return int(sum(np.count_nonzero(a[i : i + _BLOCK_BYTES] == ord("\n")) for i in steps))


def _subset_block(block: bytes, times: np.ndarray, heads: np.ndarray) -> int | None:
    """Parse one block of whole lines, each ending in LF, into the first
    rows of ``times`` and ``heads``; the number of rows, or None if a row
    is outside the subset.

    A block whose rows all have one width is read as a byte matrix
    (:func:`_same_width_block`). Any other block, or one that fails that
    path's checks, is read here, by strtod or by digit columns, and this
    path alone decides whether the block is outside the subset.
    """
    rows = _same_width_block(block, times, heads)
    if rows is not None:
        return rows
    a = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero(a == ord("\n"))
    rows = len(ends)
    before = np.empty_like(ends)  # the LF before each row; -1 wraps to the block's last LF
    before[0] = -1
    before[1:] = ends[:-1]
    comma, face = ends - 2, a[ends - 1] | np.uint8(0x20)  # the face in lowercase
    dots = np.flatnonzero(a == ord("."))
    value = a - np.uint8(ord("0"))  # a digit's value; any other byte is above 9
    # A row is a non-empty time, a comma and a face; every other byte is a
    # digit, or a dot alone in its row with a digit on both sides.
    if not (
        (comma - before > 1).all()
        and (a[comma] == ord(",")).all()
        and ((face == ord("h")) | (face == ord("t"))).all()
        and np.count_nonzero(value > 9) == 3 * rows + len(dots)
    ):
        return None
    digits = comma - before - 1
    skip = before.copy()  # the byte the digit columns step over: the row's dot, if any
    fraction = np.zeros(rows, np.intp)  # the digits after each row's dot
    if len(dots):
        dot_rows = np.searchsorted(ends, dots)
        sides = np.concatenate((value[dots - 1], value[dots + 1]))
        if not ((dot_rows[1:] != dot_rows[:-1]).all() and (sides <= 9).all()):
            return None
        digits[dot_rows] -= 1
        skip[dot_rows] = dots
        fraction[dot_rows] = comma[dot_rows] - dots - 1
    out = times[:rows]
    if digits.max() > _FAST_DIGITS:
        text = a.copy()  # blank the commas and faces; strtod rounds as ``float()`` does
        text[comma] = ord(" ")
        text[ends - 1] = ord(" ")
        out[:] = np.fromstring(text.tobytes(), sep=" ")
        if not np.isfinite(out).all():
            return None  # too many digits for a float: the per-row reader reports the row
    else:
        # Column j holds each row's digit of weight 10**j: a position before
        # the row's start is clamped to the LF before it, which counts 0.
        value[ends] = 0
        mantissa = np.zeros(rows, np.int64)
        at = comma.copy()
        for j in range(int(digits.max())):
            at -= 1
            if len(dots):  # an integer block skips this: 10-15% of its parse
                at -= at == skip
            np.maximum(at, before, out=at)
            # The dtype keeps the product int64 where numpy 1.x would keep uint8.
            mantissa += np.multiply(value[at], 10**j, dtype=np.int64)
        np.divide(mantissa, _POWERS_OF_TEN[fraction], out=out)
    heads[:rows] = face == ord("h")
    return rows


def _same_width_block(block: bytes, times: np.ndarray, heads: np.ndarray) -> int | None:
    """Parse a block whose rows all have one width, each a time of 1 to 15
    digits without a dot, a comma, a face and LF, as a ``(rows, width)``
    byte matrix; the number of rows, or None if it is not such a block.

    Each time is its row of digit values times the column weights
    ``10**(width - 4) ... 10**0``, with weight 0 on the comma, face and LF
    columns. Every product is an exact double, and every partial sum is an
    integer below ``10**15 < 2**53``, so the sum is the double that
    ``float()`` gives in any order of summation, with or without fused
    multiply-adds; a time of zeros sums to ``+0.0``, as ``float()`` reads it.
    """
    width = block.index(b"\n") + 1
    rows = len(block) // width
    if rows * width != len(block) or not 4 <= width <= _FAST_DIGITS + 3:
        return None
    if block.rfind(b"\n", 0, -1) != len(block) - 1 - width:
        return None  # the last row's width: one byte search rules out most mixed blocks
    m = np.frombuffer(block, np.uint8).reshape(rows, width)
    if not ((m[:, -1] == ord("\n")).all() and (m[:, -3] == ord(",")).all()):
        return None
    face = m[:, -2] | np.uint8(0x20)  # the face in lowercase
    is_heads = face == ord("h")
    value = m - np.uint8(ord("0"))  # a digit's value; any other byte is above 9
    # The LF, comma and face columns hold no digit, so 3 non-digits per row
    # leave no dot or stray byte in the times.
    if not ((is_heads | (face == ord("t"))).all() and np.count_nonzero(value > 9) == 3 * rows):
        return None
    weights = np.zeros(width)
    weights[:-3] = _POWERS_OF_TEN[width - 4 :: -1]
    # The whole matrix converts faster than its strided digit columns.
    np.matmul(value.astype(np.float64), weights, out=times[:rows])
    heads[:rows] = is_heads
    return rows


def _is_header(line: bytes) -> bool:
    """The per-row reader's header rule for a printable UTF-8 line 1 without
    quoting, in any script: two fields, the first not a number."""
    try:
        text = line.decode()
    except UnicodeDecodeError:
        return False
    if not text.isprintable() or '"' in text or text.count(",") != 1:
        return False
    try:
        float(text.split(",")[0])
    except ValueError:
        return True
    return False


def _read_rows(path: Path, data: bytes, value_name: str) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The per-row reader: every form of the grammar, and every error.

    A log that is not UTF-8 is an error on the line of its first bad byte,
    raised before any row is read. Rows are then checked as they are read,
    so the error raised is the first offending row's, with its line. They
    are decoded again, 8 KiB at a time: reading the whole text through a
    ``StringIO`` would hold 4 bytes per character.
    """
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Lines end at CR, LF or CRLF, as the CSV reader ends them.
        line = len((data[: exc.start] + b".").splitlines())
        problem = f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})"
        raise CsvFormatError(problem, path=str(path), line=line) from None
    times: list[float] = []
    heads: list[bool] = []
    lines: list[int] = []
    codes: dict[str, bool] = {}  # face token as written -> heads
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="") as handle:
        for line_no, row in _csv_rows(handle, path):
            if len(row) != 2:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue  # blank line
                problem = f"expected 2 fields (time,{value_name}), got {len(row)}"
                raise CsvFormatError(problem, path=str(path), line=line_no)
            time_token, face_token = row
            try:
                t = float(time_token)
            except ValueError:
                if line_no == 1:
                    continue  # header row: non-numeric first field
                problem = f"malformed time {_shown(time_token.strip())}"
                raise CsvFormatError(problem, path=str(path), line=line_no) from None
            if not 0.0 <= t < math.inf:
                problem = f"time out of range (finite, >= 0): {_shown(time_token.strip())}"
                raise CsvFormatError(problem, path=str(path), line=line_no)
            code = codes.get(face_token)
            if code is None:
                try:
                    code = codes[face_token] = Face.from_token(face_token) is Face.HEADS
                except DomainError as exc:
                    raise CsvFormatError(str(exc), path=str(path), line=line_no) from None
            times.append(t)
            heads.append(code)
            lines.append(line_no)
    return np.array(times, dtype=float), np.array(heads, dtype=bool), lines


def _csv_rows(handle: io.TextIOBase, path: Path) -> Iterator[tuple[int, list[str]]]:
    """``csv.reader``'s rows, numbered from 1. A row it cannot split, such as
    one with a field over the module's 128 KiB limit, is a CsvFormatError on
    that row's line."""
    line_no = 0
    try:
        for line_no, row in enumerate(csv.reader(handle), start=1):
            yield line_no, row
    except csv.Error as exc:
        raise CsvFormatError(str(exc), path=str(path), line=line_no + 1) from None


def load_flips(path: str | Path) -> list[Flip]:
    """Read a flip log. Rows are returned time-ordered; duplicate times fail.

    Raises:
        FileNotFoundError: No such file.
        CsvFormatError: Malformed row, out-of-range time, unknown face
            token, duplicate flip time, or a byte that is not UTF-8 (all
            with the offending line).
    """
    return list(_records(Flip, *_read_log(path, Flip)))


def load_bets(path: str | Path) -> list[Bet]:
    """Read a bet log. Rows are returned time-ordered; equal times keep file order."""
    return list(_records(Bet, *_read_log(path, Bet)))


def analyze(trace: GameTrace, options: AnalysisOptions | None = None) -> AnalysisReport:
    """Full dependence-aware analysis of one betting record.

    Reads the trace's epoch table, computes both compound probabilities,
    and scores reproducibility-by-chance twice: once pretending every bet
    is an independent event and once over effective events only. An
    occupied epoch counts as an effective win only if its bets are
    unanimous and correct. With ``options.randomization_trials`` set, each
    bet also gets a randomization test over its default interval, its
    stream keyed by ``derive_seed(options.seed, i)`` for bet i.
    """
    options = options or AnalysisOptions()
    bet_count = len(trace._bet_times)
    effective_events = effective_event_count(trace)
    # A conflicting epoch's face (-1) never equals a flip's heads flag.
    unanimous_and_right = trace._epoch_faces == trace._flip_heads[trace._occupied]
    effective_wins = int(np.count_nonzero(unanimous_and_right))
    randomization = None
    if options.randomization_trials is not None:
        randomization = _randomization_tests(trace, options.randomization_trials, options.seed)
    return AnalysisReport(
        bet_count=bet_count,
        flip_count=len(trace._flip_times),
        effective_events=effective_events,
        wins=trace.wins,
        effective_wins=effective_wins,
        naive_compound=_sig12(naive_compound_probability(trace)),
        true_compound=_sig12(true_compound_probability(trace)),
        naive_pvalue=_sig12(random_reproduction_pvalue(trace.wins, bet_count)),
        corrected_pvalue=_sig12(random_reproduction_pvalue(effective_wins, effective_events)),
        randomization=randomization,
    )


_COUNT_FIELDS = ("bet_count", "flip_count", "effective_events", "wins", "effective_wins")
_PROBABILITY_FIELDS = ("naive_compound", "true_compound", "naive_pvalue", "corrected_pvalue")


def report_to_dict(report: AnalysisReport) -> dict[str, Any]:
    """JSON-ready dict with the exact field names of :class:`AnalysisReport`."""
    randomization = None
    if report.randomization is not None:
        randomization = [_randomization_dict(r) for r in report.randomization]
    doc = {name: getattr(report, name) for name in _COUNT_FIELDS + _PROBABILITY_FIELDS}
    return {**doc, "randomization": randomization}


def _randomization_dict(r: RandomizationResult) -> dict[str, Any]:
    """A randomization result's entry in a JSON document."""
    return {"trials": r.trials, "changed": r.changed, "change_fraction": _sig12(r.change_fraction)}


def report_from_dict(data: dict[str, Any]) -> AnalysisReport:
    """Inverse of :func:`report_to_dict`.

    The change fraction is rebuilt from the integer counts, so a
    serialized report parses back to exactly the report it came from.

    Raises:
        ValidationError: If a field is missing or out of its domain: counts
            must be integers >= 0 and probabilities numbers in [0, 1],
            neither a bool.
    """
    try:
        fields = {name: data[name] for name in _COUNT_FIELDS + _PROBABILITY_FIELDS}
        for name in _COUNT_FIELDS:
            fields[name] = _integer(fields[name], name)
        for name in _PROBABILITY_FIELDS:
            _probability(fields[name], name)
        randomization = None
        if data.get("randomization") is not None:
            randomization = tuple(
                RandomizationResult(trials=r["trials"], changed=r["changed"])
                for r in data["randomization"]
            )
        return AnalysisReport(**fields, randomization=randomization)
    except (AttributeError, DomainError, KeyError, TypeError) as exc:
        raise ValidationError(f"malformed report document: {exc}") from exc


_WRITE_ROWS = 4096  # items per piece of a written list


def _json_list(count: int, block: Callable[[int, int], str]) -> Iterator[str]:
    """A list of ``count`` items, one level deep in an ``indent=2`` document, in
    pieces: ``[]``, or ``[\n`` and one piece per ``_WRITE_ROWS`` items, in order,
    each ``block(start, stop)``: items ``start`` to ``stop``, each followed by
    ``,\n``. The last piece's final ``,\n`` becomes ``\n  ]``."""
    yield "[\n" if count else "[]"
    for start in range(0, count, _WRITE_ROWS):
        text = block(start, min(start + _WRITE_ROWS, count))
        yield text if start + _WRITE_ROWS < count else text[:-2] + "\n  ]"


def report_to_json(report: AnalysisReport) -> str:
    """``json.dumps(report_to_dict(report), indent=2)``: the join of :func:`_report_json`."""
    return "".join(_report_json(report))


def _report_json(report: AnalysisReport) -> Iterator[str]:
    """:func:`report_to_json` in pieces, as ``flipbet analyze`` writes it: each
    distinct randomization entry is written once by the C encoder, and the list
    comes one piece per ``_WRITE_ROWS`` entries, so the whole document, a dict
    per bet and the pure-Python encoder of ``indent`` are never built or run."""
    names = _COUNT_FIELDS + _PROBABILITY_FIELDS
    values = _scalars([getattr(report, name) for name in names])
    head = "".join(f'  "{name}": {value},\n' for name, value in zip(names, values))
    yield f'{{\n{head}  "randomization": '
    if (results := report.randomization) is None:
        yield "null"
    else:
        texts = _result_texts(results, _randomization_json)
        yield from _json_list(len(results), lambda start, stop: "".join(next(texts)))
    yield "\n}"


def _randomization_json(r: RandomizationResult) -> str:
    """A randomization result's entry in the report's list, with the ``,\n`` after it."""
    trials, changed, fraction = _scalars([r.trials, r.changed, _sig12(r.change_fraction)])
    return (
        f'    {{\n      "trials": {trials},\n      "changed": {changed},\n'
        f'      "change_fraction": {fraction}\n    }},\n'
    )


def _report_text(report: AnalysisReport) -> Iterator[str]:
    """The text of ``flipbet analyze --format text`` in pieces of whole lines:
    the bet lines come ``_WRITE_ROWS`` to a piece, so the whole text is
    never built and a writer makes few calls."""
    yield f"bets: {report.bet_count} (wins: {report.wins})\n"
    yield f"flips: {report.flip_count}\n"
    yield f"effective events: {report.effective_events} (effective wins: {report.effective_wins})\n"
    yield f"naive compound probability: {report.naive_compound:.12g}\n"
    yield f"true compound probability: {report.true_compound:.12g}\n"
    yield f"naive p-value: {report.naive_pvalue:.12g}\n"
    yield f"corrected p-value: {report.corrected_pvalue:.12g}\n"
    if report.randomization is not None:
        blocks = _result_texts(report.randomization, _randomization_text)
        for start, texts in zip(itertools.count(0, _WRITE_ROWS), blocks):
            yield "".join([f"bet {i}: {text}\n" for i, text in enumerate(texts, start)])


def _randomization_text(r: RandomizationResult) -> str:
    return (
        f"outcome changed in {r.changed} of {r.trials} "
        f"re-placements (fraction {r.change_fraction:.12g})"
    )


def _result_texts(results: tuple, write: Callable[[RandomizationResult], str]) -> Iterator[list]:
    """``write`` of each result, one list per ``_WRITE_ROWS`` results, called once
    per distinct ``(trials, changed)``, shared or not. ``np.unique`` keys each
    block's int64 pairs (counts are at most ``_MAX_TRIALS``) as 16-byte items,
    and texts are kept across blocks, so memory is bounded by the block."""
    written: dict[tuple[int, int], str] = {}
    for start in range(0, len(results), _WRITE_ROWS):
        block = results[start : start + _WRITE_ROWS]
        columns = [map(attrgetter(name), block) for name in ("trials", "changed")]
        pairs = np.stack([np.fromiter(column, np.int64, len(block)) for column in columns], axis=1)
        items = pairs.view("V16").ravel()  # each pair as one 16-byte item
        _, first, inverse = np.unique(items, return_index=True, return_inverse=True)
        keys = list(map(tuple, pairs[first].tolist()))
        for key, i in zip(keys, first.tolist()):
            if key not in written:
                written[key] = write(block[i])
        yield np.array([written[key] for key in keys], object)[inverse].tolist()


def report_from_json(text: str) -> AnalysisReport:
    """Inverse of :func:`report_to_json`; text that does not parse is a ValidationError."""
    try:
        data = json.loads(text)
    except (RecursionError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed report document: {exc}") from exc
    return report_from_dict(data)


def trace_to_dict(trace: GameTrace) -> dict[str, Any]:
    """JSON-ready dict of a game trace; times keep full precision."""
    return {
        "config": {
            "horizon": trace.config.horizon,
            "coin_bias": trace.config.coin_bias,
            "seed": trace.config.seed,
        },
        "flips": [{"time": f.time, "outcome": f.outcome.token} for f in trace.flips],
        "bets": [{"time": b.time, "prediction": b.prediction.token} for b in trace.bets],
        "resolutions": list(trace.resolutions),
    }


_RESOLUTIONS = np.array(["    false,\n", "    true,\n"], object)  # indexed by won


def _trace_json(trace: GameTrace) -> Iterator[str]:
    """``json.dumps(trace_to_dict(trace), indent=2)`` in pieces, written from the columns.

    The lists of flips, bets and resolutions come in blocks of
    ``_WRITE_ROWS`` rows, one piece per block, so the whole document is
    never built and the writer's memory does not grow with the trace. No
    record or dict is built per row.

    A time is written as the JSON encoder writes a finite float, by
    ``float.__repr__``, except in a block whose times are all integers in
    ``[0, 2**53)``, none of them ``-0.0``. Every integer below 2**53 is a
    double, and ``repr`` writes it as the integer's own digits followed by
    ``.0`` (it takes an exponent only from 1e16), so such a block is
    written from its digits as byte matrices (:func:`_integral_rows`).
    ``-0.0`` passes a trace's ``0.0 <= t`` check, and ``repr`` writes its
    sign. Any other block keeps ``float.__repr__``: the block is the unit
    of choice.

    Times are written from the float columns, so a trace built from records
    with int times writes them as floats, where :func:`trace_to_dict` keeps
    them as given.
    """
    config = trace.config
    horizon, coin_bias, seed = _scalars([config.horizon, config.coin_bias, config.seed])
    yield (
        f'{{\n  "config": {{\n    "horizon": {horizon},\n    "coin_bias": {coin_bias},\n'
        f'    "seed": {seed}\n  }},\n  "flips": '
    )
    yield from _json_rows("outcome", trace._flip_times, trace._flip_heads)
    yield ',\n  "bets": '
    yield from _json_rows("prediction", trace._bet_times, trace._bet_heads)
    yield ',\n  "resolutions": '
    won = trace._won.view(np.uint8)
    yield from _json_list(len(won), lambda a, b: "".join(_RESOLUTIONS[won[a:b]].tolist()))
    yield "\n}"


def _scalars(values: list) -> list[str]:
    """Each value as the JSON encoder writes it."""
    return json.dumps(values)[1:-1].split(", ") if values else []


def _json_rows(face_name: str, times: np.ndarray, heads: np.ndarray) -> Iterator[str]:
    """A trace document's list of ``{"time": ..., face_name: ...}`` objects,
    framed by :func:`_json_list`.

    Each row is written whole, from its opening to the ``,\n`` after its
    closing brace. A block of integral times is written by
    :func:`_integral_rows`, any other by ``float.__repr__``.
    """
    opening = '    {\n      "time": '
    closings = [f',\n      "{face_name}": "{face.token}"\n    }}' for face in _FACES]
    # By heads flag; a gather of an object array costs less than a map.
    between = np.array([closing + ",\n" + opening for closing in closings], object)

    def rows(start: int, stop: int) -> str:
        block, faces = times[start:stop], heads[start:stop].view(np.uint8)
        text = _integral_rows(block, faces, opening, closings)
        if text is None:
            parts = [opening] * (2 * len(block) + 1)
            parts[1::2] = map(float.__repr__, block.tolist())
            parts[2::2] = between[faces].tolist()
            parts[-1] = closings[faces[-1]] + ",\n"
            text = "".join(parts)
        return text

    return _json_list(len(times), rows)


def _integral_rows(
    times: np.ndarray, faces: np.ndarray, opening: str, closings: list[str]
) -> str | None:
    """The rows of a block, if every time is an integer in ``[0, 2**53)``
    and none is ``-0.0`` (see :func:`_trace_json`); else None.

    Times never decrease, so neither does the number of their digits, and
    one search cuts the block into at most 16 runs of rows of one width.
    Each run is one ``(rows, row width)`` byte matrix in the block's
    buffer. Every row is gathered from the template of its face, and the
    run's digits, peeled one column at a time into a ``(rows, width)``
    array, are copied over the template's digit field in one assignment.
    """
    if not times.max() < 2.0**53 or np.signbit(times).any():
        return None
    value = times.astype(np.int64)
    if not (value == times).all():
        return None
    bounds = [0, *np.searchsorted(times, _POWERS_OF_TEN[1:]).tolist(), len(times)]
    runs = [(width, a, b) for width, (a, b) in enumerate(itertools.pairwise(bounds), 1) if a < b]
    head, tails = opening.encode(), [f".0{closing},\n".encode() for closing in closings]
    sizes = [(b - a) * (len(head) + width + len(tails[0])) for width, a, b in runs]
    text = np.empty(sum(sizes), np.uint8)
    offset = 0
    for (width, a, b), size in zip(runs, sizes):
        templates = np.frombuffer(b"".join(head + b"0" * width + tail for tail in tails), np.uint8)
        matrix = text[offset : offset + size].reshape(b - a, -1)
        # "clip" writes straight into out; a face is 0 or 1.
        np.take(templates.reshape(2, -1), faces[a:b], axis=0, out=matrix, mode="clip")
        digits = np.empty((b - a, width), np.uint8)
        run = value[a:b].astype(np.uint32 if width <= 9 else np.uint64)  # fewer bits divide faster
        for j in reversed(range(width)):
            quotient = run // 10
            np.subtract(run, 10 * quotient, out=digits[:, j], casting="unsafe")
            run = quotient
        digits += ord("0")
        matrix[:, len(head) : len(head) + width] = digits
        offset += size
    return str(text, "ascii")  # decoded from the buffer, with no bytes copy


def trace_from_dict(data: dict[str, Any]) -> GameTrace:
    """Inverse of :func:`trace_to_dict`; re-validates every invariant.

    Raises:
        ValidationError: If the deserialized trace breaks any trace
            invariant (including resolutions that contradict the flips or
            are not JSON booleans).
    """
    try:
        config = GameConfig(
            horizon=data["config"]["horizon"],
            coin_bias=data["config"]["coin_bias"],
            seed=data["config"]["seed"],
        )
        flips = tuple(Flip(f["time"], Face(f["outcome"])) for f in data["flips"])
        bets = tuple(Bet(b["time"], Face(b["prediction"])) for b in data["bets"])
        resolutions = tuple(data["resolutions"])
        if not all(isinstance(r, bool) for r in resolutions):
            raise TypeError(f"resolutions must be booleans, got {_shown(list(resolutions))}")
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"malformed trace document: {exc}") from exc
    return GameTrace(config=config, flips=flips, bets=bets, resolutions=resolutions)
