"""File ingestion and the machine-readable analysis report.

CSV input schemas (UTF-8, LF or CRLF, optional header row detected by a
non-numeric first field):

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

from .errors import CsvFormatError, ValidationError
from .game import Bet, Face, Flip, GameConfig, GameTrace
from .probability import (
    effective_event_count,
    group_by_epoch,
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
    """

    randomization_trials: int | None = None
    seed: int = 0


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


def _parse_rows(path: str | Path, value_name: str) -> list[tuple[float, Face, int]]:
    """Parse a two-column time/face CSV into (time, face, line_no) rows."""
    path = Path(path)
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


def load_flips(path: str | Path) -> list[Flip]:
    """Read a flip log. Rows are returned time-ordered; duplicate times fail.

    Raises:
        FileNotFoundError: No such file.
        CsvFormatError: Malformed row, out-of-range time, unknown face
            token, or duplicate flip time (all with the offending line).
    """
    rows = _parse_rows(path, "outcome")
    for prev, cur in zip(rows, rows[1:]):
        if prev[0] == cur[0]:
            raise CsvFormatError(
                f"duplicate flip time {cur[0]!r}", path=str(path), line=cur[2]
            )
    return [Flip(t, face) for t, face, _ in rows]


def load_bets(path: str | Path) -> list[Bet]:
    """Read a bet log. Rows are returned time-ordered; equal times keep file order."""
    return [Bet(t, face) for t, face, _ in _parse_rows(path, "prediction")]


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
    faces = group_by_epoch(trace).faces
    effective_events = effective_event_count(trace)
    effective_wins = sum(face is trace.flips[e].outcome for e, face in faces.items())
    randomization = None
    if options.randomization_trials is not None:
        randomization = tuple(
            randomization_test(
                trace,
                i,
                trials=options.randomization_trials,
                seed=derive_seed(options.seed, i),
            )
            for i in range(len(trace.bets))
        )
    return AnalysisReport(
        bet_count=len(trace.bets),
        flip_count=len(trace.flips),
        effective_events=effective_events,
        wins=trace.wins,
        effective_wins=effective_wins,
        naive_compound=_sig12(naive_compound_probability(trace)),
        true_compound=_sig12(true_compound_probability(trace)),
        naive_pvalue=_sig12(random_reproduction_pvalue(trace.wins, len(trace.bets))),
        corrected_pvalue=_sig12(random_reproduction_pvalue(effective_wins, effective_events)),
        randomization=randomization,
    )


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
    return {
        "bet_count": report.bet_count,
        "flip_count": report.flip_count,
        "effective_events": report.effective_events,
        "wins": report.wins,
        "effective_wins": report.effective_wins,
        "naive_compound": report.naive_compound,
        "true_compound": report.true_compound,
        "naive_pvalue": report.naive_pvalue,
        "corrected_pvalue": report.corrected_pvalue,
        "randomization": randomization,
    }


def report_from_dict(data: dict[str, Any]) -> AnalysisReport:
    """Inverse of :func:`report_to_dict`.

    The change fraction is rebuilt from the integer counts, so a
    serialized report parses back to exactly the report it came from.

    Raises:
        ValidationError: If a field is missing or has the wrong type.
    """
    try:
        randomization = None
        if data.get("randomization") is not None:
            randomization = tuple(
                RandomizationResult.from_counts(r["trials"], r["changed"])
                for r in data["randomization"]
            )
        return AnalysisReport(
            bet_count=data["bet_count"],
            flip_count=data["flip_count"],
            effective_events=data["effective_events"],
            wins=data["wins"],
            effective_wins=data["effective_wins"],
            naive_compound=data["naive_compound"],
            true_compound=data["true_compound"],
            naive_pvalue=data["naive_pvalue"],
            corrected_pvalue=data["corrected_pvalue"],
            randomization=randomization,
        )
    except (AttributeError, KeyError, TypeError) as exc:
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
            invariant (including resolutions that contradict the flips).
    """
    try:
        config = GameConfig(
            horizon=data["config"]["horizon"],
            coin_bias=data["config"]["coin_bias"],
            seed=data["config"]["seed"],
        )
        flips = tuple(Flip(f["time"], Face(f["outcome"])) for f in data["flips"])
        bets = tuple(Bet(b["time"], Face(b["prediction"])) for b in data["bets"])
        resolutions = tuple(bool(r) for r in data["resolutions"])
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"malformed trace document: {exc}") from exc
    return GameTrace(config=config, flips=flips, bets=bets, resolutions=resolutions)
