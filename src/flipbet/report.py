"""File ingestion and the machine-readable analysis report.

CSV input schemas (UTF-8, LF or CRLF, CSV quoting, blank lines skipped, an
optional header row on line 1 detected by a non-numeric first field; rows
are stably sorted by time):

* flips: ``time,outcome`` with outcome in {H, T}; duplicate times rejected.
* bets: ``time,prediction`` with prediction in {H, T}.

The analysis report is a single JSON object whose field names match
:class:`AnalysisReport`. Probabilities are plain decimal numbers, rounded
to at most 12 significant digits at construction so that serializing and
re-parsing a report reproduces it exactly.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .errors import CsvFormatError, DomainError, ValidationError
from .game import (
    Bet,
    Face,
    Flip,
    GameConfig,
    GameTrace,
    _checked,
    _integer,
    _is_number,
    _records,
    _seed,
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
                problems.append(f"randomization_trials must be None or an integer >= 1, got {trials!r}")
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


def _read_log(
    path: str | Path, value_name: str, *, distinct: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column time/face CSV into (times, heads) columns.

    Rows are checked as they are read, so the error raised is the first
    offending row's, with its line. Rows are then stably sorted by time, so
    equal times keep file order; with ``distinct``, equal times are an error.
    """
    path = Path(path)
    times: list[float] = []
    heads: list[bool] = []
    lines: list[int] = []
    codes: dict[str, bool] = {}  # face token as written -> heads
    with path.open(newline="", encoding="utf-8") as handle:
        for line_no, row in enumerate(csv.reader(handle), start=1):
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
                problem = f"malformed time {time_token.strip()!r}"
                raise CsvFormatError(problem, path=str(path), line=line_no) from None
            if not 0.0 <= t < math.inf:
                problem = f"time out of range (finite, >= 0): {time_token.strip()!r}"
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
    t, is_heads, line_of = np.array(times, dtype=float), np.array(heads, dtype=bool), lines
    if (t[1:] < t[:-1]).any():
        order = np.argsort(t, kind="stable")
        t, is_heads, line_of = t[order], is_heads[order], np.array(lines)[order]
    equal = t[1:] == t[:-1]
    if distinct and equal.any():
        i = int(equal.argmax()) + 1
        problem = f"duplicate flip time {t[i].item()!r}"
        raise CsvFormatError(problem, path=str(path), line=int(line_of[i]))
    return t, is_heads


def load_flips(path: str | Path) -> list[Flip]:
    """Read a flip log. Rows are returned time-ordered; duplicate times fail.

    Raises:
        FileNotFoundError: No such file.
        CsvFormatError: Malformed row, out-of-range time, unknown face
            token, or duplicate flip time (all with the offending line).
    """
    return list(_records(Flip, *_read_log(path, "outcome", distinct=True)))


def load_bets(path: str | Path) -> list[Bet]:
    """Read a bet log. Rows are returned time-ordered; equal times keep file order."""
    return list(_records(Bet, *_read_log(path, "prediction")))


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
        ValidationError: If a field is missing or has the wrong type: counts
            must be integers and probabilities numbers, neither a bool.
    """
    try:
        fields = {name: data[name] for name in _COUNT_FIELDS + _PROBABILITY_FIELDS}
        for name in _COUNT_FIELDS:
            fields[name] = _integer(fields[name], name, None)
        for name in _PROBABILITY_FIELDS:
            if not _is_number(fields[name]):
                raise TypeError(f"{name} must be a number, got {fields[name]!r}")
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
            raise TypeError(f"resolutions must be booleans, got {list(resolutions)!r}")
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"malformed trace document: {exc}") from exc
    return GameTrace(config=config, flips=flips, bets=bets, resolutions=resolutions)
