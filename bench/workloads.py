"""Seeded input generators and independent output oracles, one per workload.

Nothing here imports ``flipbet``: the oracles recompute every checked
number from the generated inputs with numpy and scipy, so a defect in the
program cannot also hide in its check.

Times are written as integers. Parsing ``"123"`` and computing ``123.0``
give the same double, so the oracle's arrays equal what the program reads.
Bets may share a time with a flip; both sides resolve those flip-first,
``np.searchsorted(flip_times, bet_times, "right") - 1``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import stats

# Relative tolerance of the op check on the report's two p-values. The
# report declares 12 significant digits, but its binomial tails are known
# to miss that (see README.md); the measured error is surfaced as the
# per-layer metric significance.pvalue_rel_err_max, never hidden by this.
PVALUE_REL_TOL = 1e-6
# Allowed deviation, in binomial standard errors, of a sampled share.
SAMPLING_SE = 5.0
# Largest --flip-times argument, so the same argv also runs from a shell.
MAX_SCHEDULE_BYTES = 128 * 1024


@dataclass
class Inputs:
    """What the worker runs and what the oracle needs to check it."""

    kind: str  # "cli" or "montecarlo"
    units_per_op: int
    argv: list[str] = field(default_factory=list)
    out_path: str | None = None
    call: dict | None = None  # montecarlo: arguments of the library call
    check: dict = field(default_factory=dict)  # oracle state, never sent on


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, *workload.encode()])


def _flip_times(rng: np.random.Generator, n_flips: int, horizon: int) -> np.ndarray:
    """0 followed by n_flips - 1 distinct sorted integers in [1, horizon)."""
    rest = np.sort(rng.choice(horizon - 1, n_flips - 1, replace=False)) + 1
    return np.concatenate(([0], rest)).astype(np.int64)


def _write_log(path: Path, header: str, times: np.ndarray, heads: np.ndarray) -> None:
    faces = np.where(heads, "H", "T")
    rows = map("{},{}".format, times.tolist(), faces.tolist())
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def _epochs(flip_times: np.ndarray, bet_times: np.ndarray) -> np.ndarray:
    """Index of the flip governing each bet (flip-first at equal times)."""
    return np.searchsorted(flip_times, bet_times, "right") - 1


# --------------------------------------------------------------------------
# analyze: shared oracle for both analyze workloads


def _analyze_expectation(flip_times, flip_heads, bet_times, bet_heads) -> dict:
    """The report's expected contents; the analyze commands run a fair coin."""
    epoch = _epochs(flip_times, bet_times)
    won = bet_heads == flip_heads[epoch]
    occupied, starts = np.unique(epoch, return_index=True)
    lo = np.minimum.reduceat(bet_heads.astype(np.int8), starts) if len(starts) else []
    hi = np.maximum.reduceat(bet_heads.astype(np.int8), starts) if len(starts) else []
    unanimous = np.asarray(lo) == np.asarray(hi)
    eff_wins = int((unanimous & won[starts]).sum()) if len(starts) else 0
    log_naive = len(bet_times) * math.log(0.5)
    log_true = len(occupied) * math.log(0.5) if unanimous.all() else -math.inf
    return {
        "ints": {
            "bet_count": len(bet_times),
            "flip_count": len(flip_times),
            "effective_events": len(occupied),
            "wins": int(won.sum()),
            "effective_wins": eff_wins,
        },
        "log_naive": log_naive,
        "log_true": log_true,
        "occupied_epochs": len(occupied),
        "conflicting_epochs": int((~unanimous).sum()),
    }


def _upper_tail(k: int, n: int) -> float:
    """P(X >= k) for X ~ Binomial(n, 1/2); 1 when k is 0."""
    return 1.0 if k == 0 else float(stats.binom.sf(k - 1, n, 0.5))


def _close_prob(reported: float, log_exact: float) -> bool:
    """A compound probability against its exact value given as a log."""
    exact = math.exp(log_exact) if log_exact > -745.0 else 0.0
    return abs(reported - exact) <= 1e-9 * exact + 1e-300


def check_analyze_report(report: dict, exp: dict) -> tuple[list[str], float]:
    """Problems with one analyze report, and its worst p-value relative error."""
    problems = [
        f"{key}: reported {report.get(key)!r}, expected {value}"
        for key, value in exp["ints"].items()
        if report.get(key) != value
    ]
    ints = exp["ints"]
    if not _close_prob(report["naive_compound"], exp["log_naive"]):
        problems.append(f"naive_compound {report['naive_compound']!r} is not exp({exp['log_naive']})")
    if not _close_prob(report["true_compound"], exp["log_true"]):
        problems.append(f"true_compound {report['true_compound']!r} is not exp({exp['log_true']})")
    worst = 0.0
    for key, k, n in (
        ("naive_pvalue", ints["wins"], ints["bet_count"]),
        ("corrected_pvalue", ints["effective_wins"], ints["effective_events"]),
    ):
        exact = _upper_tail(k, n)
        err = abs(report[key] - exact) / exact
        worst = max(worst, err)
        if not err <= PVALUE_REL_TOL:
            problems.append(f"{key} {report[key]!r} vs binom.sf {exact!r}: rel err {err:.3g}")
    return problems, worst


# --------------------------------------------------------------------------
# analyze_bulk


def gen_analyze_bulk(seed: int, work: Path, params: dict) -> Inputs:
    """A skill-free bettor who splits each guess into many bets.

    Flips fall uniformly on an integer clock; bets fall uniformly too, so
    an occupied epoch holds about bets / flips of them. The bettor picks
    one face per epoch at random and bets it for every bet in that epoch.
    """
    n_flips, n_bets = params["flips"], params["bets"]
    horizon = 10_000 * n_flips
    rng = _rng(seed, "analyze_bulk")
    flip_times = _flip_times(rng, n_flips, horizon)
    flip_heads = rng.random(n_flips) < 0.5
    bet_times = np.sort(rng.integers(0, horizon + 1, n_bets))
    epoch_face = rng.random(n_flips) < 0.5
    bet_heads = epoch_face[_epochs(flip_times, bet_times)]
    flips_csv, bets_csv = work / "flips.csv", work / "bets.csv"
    _write_log(flips_csv, "time,outcome", flip_times, flip_heads)
    _write_log(bets_csv, "time,prediction", bet_times, bet_heads)
    return Inputs(
        kind="cli",
        units_per_op=n_bets,
        argv=["analyze", "--flips", str(flips_csv), "--bets", str(bets_csv)],
        check=_analyze_expectation(flip_times, flip_heads, bet_times, bet_heads),
    )


def _read_report(output: bytes, exp: dict) -> tuple[dict, list[str], float]:
    try:
        report = json.loads(output)
        return (report, *check_analyze_report(report, exp))
    except (ValueError, KeyError, TypeError) as exc:
        return {}, [f"report is not an analysis report: {exc!r}"], 0.0


def check_analyze_bulk(output: bytes, inputs: Inputs) -> tuple[list[str], dict]:
    report, problems, rel_err = _read_report(output, inputs.check)
    if report.get("randomization") is not None:
        problems.append("unexpected randomization section")
    return problems, _analyze_layer_counts(inputs.check, rel_err)


def _analyze_layer_counts(exp: dict, rel_err: float) -> dict:
    return {
        "probability.occupied_epochs": exp["occupied_epochs"],
        "probability.conflicting_epochs": exp["conflicting_epochs"],
        "significance.pvalue_rel_err_max": rel_err,
    }


# --------------------------------------------------------------------------
# analyze_randomize


def gen_analyze_randomize(seed: int, work: Path, params: dict) -> Inputs:
    """Bet pairs: an anchor bet spanning about `span` flips since the
    previous bet, then a follower in the anchor's own epoch.

    A follower's default randomization interval holds no flip, so its
    exact change fraction is 0 (the paper's invariance); an anchor's
    interval crosses about `span` flips.
    """
    pairs, span, trials = params["pairs"], params["span"], params["trials"]
    n_flips = span * (pairs + 1)
    horizon = 1000 * n_flips
    rng = _rng(seed, "analyze_randomize")
    flip_times = _flip_times(rng, n_flips, horizon)
    flip_heads = rng.random(n_flips) < 0.5
    jitter = rng.integers(-span // 5, span // 5 + 1, pairs)
    anchor_epochs = span * np.arange(1, pairs + 1) + jitter
    bet_times = []
    for e in anchor_epochs.tolist():
        anchor = int(rng.integers(flip_times[e], flip_times[e + 1]))
        follower = int(rng.integers(anchor, flip_times[e + 1]))
        bet_times += [anchor, follower]
    bet_times = np.array(bet_times, dtype=np.int64)
    bet_heads = rng.random(len(bet_times)) < 0.5
    flips_csv, bets_csv = work / "flips.csv", work / "bets.csv"
    _write_log(flips_csv, "time,outcome", flip_times, flip_heads)
    _write_log(bets_csv, "time,prediction", bet_times, bet_heads)
    check = _analyze_expectation(flip_times, flip_heads, bet_times, bet_heads)
    check["trials"] = trials
    check["change_fractions"] = _exact_change_fractions(flip_times, flip_heads, bet_times)
    return Inputs(
        kind="cli",
        units_per_op=len(bet_times) * trials,
        argv=[
            "analyze", "--flips", str(flips_csv), "--bets", str(bets_csv),
            "--randomize", str(trials), "--seed", str(int(rng.integers(2**63))),
        ],
        check=check,
    )


def _exact_change_fractions(flip_times, flip_heads, bet_times) -> list[float]:
    """Per bet, the share of its default interval [previous bet, bet] in
    which the coin shows another face than at the bet's own time."""
    fractions = []
    lows = np.concatenate(([0], bet_times[:-1]))
    firsts, lasts = _epochs(flip_times, lows), _epochs(flip_times, bet_times)
    for lo, hi, first, last in zip(lows.tolist(), bet_times.tolist(), firsts, lasts):
        if hi == lo:
            fractions.append(0.0)
            continue
        # Piece k of [lo, hi] starts at edges[k] and shows flip first + k.
        edges = np.concatenate(([lo], flip_times[first + 1 : last + 1], [hi]))
        shows = flip_heads[first : last + 1]
        differs = np.diff(edges)[shows != flip_heads[last]].sum()
        fractions.append(float(differs / (hi - lo)))
    return fractions


def check_analyze_randomize(output: bytes, inputs: Inputs) -> tuple[list[str], dict]:
    exp = inputs.check
    report, problems, rel_err = _read_report(output, exp)
    results = report.get("randomization")
    if not isinstance(results, list) or len(results) != len(exp["change_fractions"]):
        return problems + ["randomization section missing or of the wrong length"], {}
    trials = exp["trials"]
    for i, (r, f) in enumerate(zip(results, exp["change_fractions"])):
        if r.get("trials") != trials:
            problems.append(f"bet {i}: {r.get('trials')!r} trials, expected {trials}")
            continue
        changed = r["changed"]
        if f == 0.0:
            ok = changed == 0
        else:
            ok = abs(changed - trials * f) <= SAMPLING_SE * math.sqrt(trials * f * (1 - f))
        if not ok:
            problems.append(f"bet {i}: changed {changed} of {trials}, exact fraction {f:.6g}")
    return problems, _analyze_layer_counts(exp, rel_err)


# --------------------------------------------------------------------------
# simulate_trace


def gen_simulate_trace(seed: int, work: Path, params: dict) -> Inputs:
    """A flip schedule on the command line, bets from CSV, trace to a file."""
    n_flips, n_bets, bias = params["flips"], params["bets"], params["bias"]
    horizon = 100 * n_flips
    rng = _rng(seed, "simulate_trace")
    flip_times = _flip_times(rng, n_flips, horizon)
    bet_times = np.sort(rng.integers(0, horizon + 1, n_bets))
    bet_heads = rng.random(n_bets) < 0.5
    schedule = ",".join(map(str, flip_times.tolist()))
    if len(schedule.encode()) >= MAX_SCHEDULE_BYTES:
        raise ValueError(f"--flip-times argument is {len(schedule)} bytes, over 128 KiB")
    bets_csv, out = work / "bets.csv", work / "trace.json"
    _write_log(bets_csv, "time,prediction", bet_times, bet_heads)
    sim_seed = int(rng.integers(2**63))
    return Inputs(
        kind="cli",
        units_per_op=n_bets,
        argv=[
            "simulate", "--horizon", str(horizon), "--flip-times", schedule,
            "--bias", repr(bias), "--seed", str(sim_seed),
            "--bets", str(bets_csv), "--out", str(out),
        ],
        out_path=str(out),
        check={
            "config": {"horizon": horizon, "coin_bias": bias, "seed": sim_seed},
            "flip_times": flip_times,
            "bet_times": bet_times,
            "bet_heads": bet_heads,
        },
    )


def check_simulate_trace(output: bytes, inputs: Inputs) -> tuple[list[str], dict]:
    try:
        trace = json.loads(output)
        config = trace["config"]
        flip_times = np.array([f["time"] for f in trace["flips"]], dtype=float)
        flip_heads = np.array([f["outcome"] == "H" for f in trace["flips"]])
        bet_times = np.array([b["time"] for b in trace["bets"]], dtype=float)
        bet_heads = np.array([b["prediction"] == "H" for b in trace["bets"]])
        resolutions = np.array(trace["resolutions"], dtype=bool)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"trace is not a trace document: {exc!r}"], {}
    exp = inputs.check
    problems = []
    if config != exp["config"]:
        problems.append(f"config {config!r}, expected {exp['config']!r}")
    if not np.array_equal(flip_times, exp["flip_times"]):
        return problems + ["flip times differ from the schedule"], {}
    if not (np.array_equal(bet_times, exp["bet_times"]) and np.array_equal(bet_heads, exp["bet_heads"])):
        return problems + ["bets differ from the bet log"], {}
    if not np.array_equal(resolutions, bet_heads == flip_heads[_epochs(flip_times, bet_times)]):
        problems.append("resolutions disagree with an independent resolve")
    n, bias = len(flip_heads), exp["config"]["coin_bias"]
    share = flip_heads.mean()
    if abs(share - bias) > SAMPLING_SE * math.sqrt(bias * (1 - bias) / n):
        problems.append(f"heads share {share:.5f} over {n} flips, bias {bias}")
    return problems, {}


# --------------------------------------------------------------------------
# montecarlo


def gen_montecarlo(seed: int, work: Path, params: dict) -> Inputs:
    """Few flips, a handful of occupied epochs with unanimous bets each."""
    n_flips, epochs, per_epoch = params["flips"], params["epochs"], params["bets_per_epoch"]
    horizon = 1000 * n_flips
    rng = _rng(seed, "montecarlo")
    flip_times = _flip_times(rng, n_flips, horizon)
    chosen = np.sort(rng.choice(n_flips, epochs, replace=False))
    ends = np.append(flip_times[1:], horizon)
    bets = []
    for e in chosen.tolist():
        face = "H" if rng.random() < 0.5 else "T"
        times = np.sort(rng.integers(flip_times[e], ends[e], per_epoch))
        bets += [[int(t), face] for t in times]
    bias = params["bias"]
    log_exact = sum(math.log(bias) if f == "H" else math.log1p(-bias) for _, f in bets[::per_epoch])
    return Inputs(
        kind="montecarlo",
        units_per_op=params["trials"],
        call={
            "horizon": horizon,
            "coin_bias": bias,
            "flip_times": flip_times.tolist(),
            "bets": bets,
            "trials": params["trials"],
            "base_seed": int(rng.integers(2**63)),
        },
        check={"exact": math.exp(log_exact)},
    )


def wilson_interval(successes: int, trials: int, z: float) -> tuple[float, float]:
    p = successes / trials
    denom = 1 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return centre - half, centre + half


def check_montecarlo(output: bytes, inputs: Inputs) -> tuple[list[str], dict]:
    try:
        est = json.loads(output)
        trials, successes = est["trials"], est["successes"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"estimate is not readable: {exc!r}"], {}
    problems = []
    if trials != inputs.call["trials"]:
        problems.append(f"{trials} trials, expected {inputs.call['trials']}")
        return problems, {}
    if est["estimate"] != successes / trials:
        problems.append(f"estimate {est['estimate']!r} is not {successes}/{trials}")
    lo, hi = wilson_interval(successes, trials, SAMPLING_SE)
    exact = inputs.check["exact"]
    if not lo <= exact <= hi:
        problems.append(f"exact {exact:.6g} outside Wilson interval [{lo:.6g}, {hi:.6g}]")
    return problems, {}


@dataclass(frozen=True)
class Workload:
    why: str
    unit: str
    params: dict
    generate: Callable[[int, Path, dict], Inputs]
    check: Callable[[bytes, Inputs], tuple[list[str], dict]]


WORKLOADS = {
    "analyze_bulk": Workload(
        why="the paper's case: a skill-free bettor splitting each guess into ~10 bets; "
        "loads CSV, validation, epoch grouping and compound probabilities",
        unit="bets",
        params={"flips": 100_000, "bets": 1_000_000},
        generate=gen_analyze_bulk,
        check=check_analyze_bulk,
    ),
    "analyze_randomize": Workload(
        why="randomization test on a small log: coin_state_at point queries and "
        "per-call overhead, with load and grouping negligible",
        unit="re-placements",
        params={"pairs": 50, "span": 100, "trials": 100},
        generate=gen_analyze_randomize,
        check=check_analyze_randomize,
    ),
    "simulate_trace": Workload(
        why="the write side: seeded simulation, trace_to_dict and JSON encoding of "
        "a 10^4-flip, 2x10^5-bet trace",
        unit="bets",
        params={"flips": 10_000, "bets": 200_000, "bias": 0.6},
        generate=gen_simulate_trace,
        check=check_simulate_trace,
    ),
    "montecarlo": Workload(
        why="the only path into the Monte Carlo kernel, which is memory-bound",
        unit="trials",
        params={"flips": 1_000, "epochs": 10, "bets_per_epoch": 3, "bias": 0.5, "trials": 250_000},
        generate=gen_montecarlo,
        check=check_montecarlo,
    ),
}
