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

import csv
import io
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Iterable, Iterator

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
    RandomizationResult,
    derive_seed,
    random_reproduction_pvalue,
    randomization_test,
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
            integer >= 1, or ``seed`` is not an integer in
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

    The file is read once, so a pipe works as a log. A log in the common
    subset of the grammar is parsed without a per-row loop
    (:func:`_subset_columns`); any other log goes through the per-row
    reader, the one source of error messages, which names the face column
    after the record's face field. Rows are then stably sorted by time, so
    equal times keep file order; in a flip log, equal times are an error.
    """
    path = Path(path)
    data = path.read_bytes()
    columns = _subset_columns(data)
    if columns is None:
        columns = _read_rows(path, data, fields(record)[1].name)
    t, is_heads, lines = columns  # lines[i]: the line of row i
    order = None
    if (t[1:] < t[:-1]).any():
        order = np.argsort(t, kind="stable")
        t, is_heads = t[order], is_heads[order]
    equal = t[1:] == t[:-1]
    if record is Flip and equal.any():
        i = int(equal.argmax()) + 1
        problem = f"duplicate flip time {t[i].item()!r}"
        line = lines[i if order is None else int(order[i])]
        raise CsvFormatError(problem, path=str(path), line=line)
    return t, is_heads


def _subset_columns(data: bytes) -> tuple[np.ndarray, np.ndarray, range] | None:
    """The columns of a log in the common subset of the grammar, or None.

    The subset: rows ``digits[.digits],H`` or ``digits[.digits],T``, LF or
    CRLF line ends with the last one optional, and an optional header on
    line 1 that the per-row reader's own rule recognises. Such a log has
    none of the forms that reader treats specially (blank lines, quoting,
    padding, lowercase faces, exponents, ``nan``...), so row i is the row
    that reader reads from line i + 1 + header. Byte operations check the
    subset; numpy parses the times, and each face is the byte before its
    line end.
    """
    if b"\r" in data:  # a one-byte search is a memchr, cheaper than a replace that finds nothing
        data = data.replace(b"\r\n", b"\n")  # a lone CR is left to fail the checks below
    end = data.find(b"\n")
    header = _is_header(data if end < 0 else data[:end])
    if header:
        data = data[end + 1 :] if end >= 0 else b""
    if data and not data.endswith(b"\n"):
        data += b"\n"
    rows = data.count(b"\n")
    # Without its digits, and with each fraction's dot folded into the comma
    # after it, a log in the subset is one ",H\n" or ",T\n" per row.
    skeleton = data.translate(None, b"0123456789").replace(b".,", b",")
    empty_runs = (b"\n,", b"\n.", b".,") if b"." in data else (b"\n,",)
    if not (
        len(skeleton) == 3 * rows
        and skeleton.count(b",H\n") + skeleton.count(b",T\n") == rows
        and data.count(b",H\n") + data.count(b",T\n") == rows  # no digit after a comma
        and not data.startswith((b".", b","))
        and not any(empty in data for empty in empty_runs)  # no empty digit run
    ):
        return None
    lines = range(1 + header, 1 + header + rows)
    if not rows:
        return np.empty(0), np.empty(0, dtype=bool), lines
    times = np.loadtxt(
        io.BytesIO(data), delimiter=",", usecols=0, comments=None, quotechar=None, ndmin=1
    )
    if not np.isfinite(times).all():
        return None  # too many digits for a float: the per-row reader reports the row
    return times, np.frombuffer(skeleton, np.uint8)[1::3] == ord("H"), lines


def _is_header(line: bytes) -> bool:
    """The per-row reader's header rule for a line 1 without quoting or
    non-ASCII bytes: two fields, the first not a number."""
    if not line.isascii():
        return False
    text = line.decode()
    if not text.isprintable() or '"' in text or text.count(",") != 1:
        return False
    try:
        float(text.split(",")[0])
    except ValueError:
        return True
    return False


def _read_rows(path: Path, data: bytes, value_name: str) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The per-row reader: every form of the grammar, and every error.

    Rows are checked as they are read, so the error raised is the first
    offending row's, with its line.
    """
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
            token, or duplicate flip time (all with the offending line).
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
    bet also gets a randomization test over its default interval.
    """
    options = options or AnalysisOptions()
    bet_count = len(trace._bet_times)
    effective_events = effective_event_count(trace)
    # A conflicting epoch's face (-1) never equals a flip's heads flag.
    unanimous_and_right = trace._epoch_faces == trace._flip_heads[trace._occupied]
    effective_wins = int(np.count_nonzero(unanimous_and_right))
    randomization = None
    if options.randomization_trials is not None:
        randomization = tuple(
            randomization_test(
                trace,
                i,
                trials=options.randomization_trials,
                seed=derive_seed(options.seed, i),
            )
            for i in range(bet_count)
        )
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
        randomization = [
            {
                "trials": r.trials,
                "changed": r.changed,
                "change_fraction": _sig12(r.change_fraction),
            }
            for r in report.randomization
        ]
    doc = {name: getattr(report, name) for name in _COUNT_FIELDS + _PROBABILITY_FIELDS}
    return {**doc, "randomization": randomization}


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


def report_to_json(report: AnalysisReport, *, indent: int | None = 2) -> str:
    return json.dumps(report_to_dict(report), indent=indent)


def report_from_json(text: str) -> AnalysisReport:
    return report_from_dict(json.loads(text))


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


_TRACE_JSON = """\
{{
  "config": {{
    "horizon": {},
    "coin_bias": {},
    "seed": {}
  }},
  "flips": {},
  "bets": {},
  "resolutions": {}
}}"""


def _trace_json(trace: GameTrace) -> str:
    """``json.dumps(trace_to_dict(trace), indent=2)``, written from the columns.

    The C encoder writes each column's scalars and a fixed template joins
    them, so no record or dict is built per row. Times are written from
    the float columns, so a trace built from records with int times writes
    them as floats, where :func:`trace_to_dict` keeps them as given.
    """
    config = trace.config
    return _TRACE_JSON.format(
        *map(json.dumps, (config.horizon, config.coin_bias, config.seed)),
        _json_rows("outcome", trace._flip_times.tolist(), trace._flip_heads),
        _json_rows("prediction", trace._bet_times.tolist(), trace._bet_heads),
        _json_list(map("    ".__add__, _scalars(trace._won.tolist()))),
    )


def _scalars(values: list) -> list[str]:
    """Each value as the JSON encoder writes it."""
    return json.dumps(values)[1:-1].split(", ") if values else []


def _json_rows(face_name: str, times: list, heads: np.ndarray) -> str:
    """A trace document's list of ``{"time": ..., face_name: ...}`` objects."""
    opening = '    {\n      "time": '
    closings = [f',\n      "{face_name}": "{face.token}"\n    }}' for face in _FACES]
    rows = map(str.__add__, _scalars(times), map(closings.__getitem__, heads.tolist()))
    return _json_list(map(opening.__add__, rows))


def _json_list(items: Iterable[str]) -> str:
    """A list of written items, one level deep in an ``indent=2`` document."""
    body = ",\n".join(items)
    return f"[\n{body}\n  ]" if body else "[]"


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
