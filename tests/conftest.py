"""Shared fixtures and hypothesis strategies."""

from __future__ import annotations

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import strategies as st

from flipbet import (
    AnalysisReport,
    Bet,
    Face,
    Flip,
    GameConfig,
    GameTrace,
    RandomizationResult,
    derive_seed,
    make_trace,
)

faces = st.sampled_from([Face.HEADS, Face.TAILS])

seeds = st.integers(min_value=0, max_value=2**64 - 1)


@st.composite
def game_inputs(draw, max_flips: int = 5, max_bets: int = 6, bias=None, min_bets: int = 0):
    """(config, flip_times, bets) triple obeying every schedule invariant."""
    horizon = draw(st.floats(min_value=0.5, max_value=50.0, allow_nan=False))
    extra = draw(
        st.lists(
            st.floats(
                min_value=0.0,
                max_value=horizon,
                exclude_min=True,
                allow_nan=False,
                allow_infinity=False,
            ),
            unique=True,
            max_size=max_flips - 1,
        )
    )
    flip_times = [0.0] + sorted(extra)
    n_bets = draw(st.integers(min_value=min_bets, max_value=max_bets))
    bets = [
        Bet(
            draw(st.floats(min_value=0.0, max_value=horizon, allow_nan=False)),
            draw(faces),
        )
        for _ in range(n_bets)
    ]
    bets.sort(key=lambda b: b.time)
    coin_bias = draw(st.floats(0.0, 1.0, allow_nan=False)) if bias is None else bias
    config = GameConfig(horizon=horizon, coin_bias=coin_bias, seed=draw(seeds))
    return config, flip_times, bets


@st.composite
def traces(draw, max_flips: int = 5, max_bets: int = 6, bias=None, min_bets: int = 0) -> GameTrace:
    """Random valid trace with externally chosen flip outcomes."""
    config, flip_times, bets = draw(game_inputs(max_flips, max_bets, bias, min_bets))
    flips = [Flip(t, draw(faces)) for t in flip_times]
    return make_trace(config, flips, bets)


@pytest.fixture
def paradox_trace() -> GameTrace:
    """One flip landing heads at t=0; two bets on heads at 0.3 and 0.7."""
    return make_trace(
        GameConfig(horizon=1.0),
        [Flip(0.0, Face.HEADS)],
        [Bet(0.3, Face.HEADS), Bet(0.7, Face.HEADS)],
    )


@pytest.fixture
def new_launch_trace() -> GameTrace:
    """Two flips with one bet in each epoch, all on the realized faces."""
    return make_trace(
        GameConfig(horizon=1.0),
        [Flip(0.0, Face.HEADS), Flip(0.5, Face.TAILS)],
        [Bet(0.3, Face.HEADS), Bet(0.7, Face.TAILS)],
    )


def reference_randomization(trace: GameTrace, trials: int, seed: int) -> tuple:
    """Every bet's randomization test as ``analyze`` runs it, rebuilt from
    numpy and public names only: bet i is re-placed at the ``trials`` times of
    ``Generator(Philox(derive_seed(seed, i))).uniform(lo, hi, trials)``, from
    the previous bet's time (0 for the first) to its own, and each time is
    resolved against the flips on its own (flip-first: a flip at t governs t).
    """
    flip_times = [f.time for f in trace.flips]
    results, lo = [], 0.0
    for i, (bet, won) in enumerate(zip(trace.bets, trace.resolutions)):
        stream = np.random.Generator(np.random.Philox(key=derive_seed(seed, i)))
        changed = 0
        for t in stream.uniform(lo, bet.time, trials).tolist():
            face = trace.flips[bisect_right(flip_times, t) - 1].outcome
            changed += (bet.prediction is face) != won
        results.append(RandomizationResult(trials=trials, changed=changed))
        lo = bet.time
    return tuple(results)


def text_report(report: AnalysisReport) -> str:
    """The text format, written line by line."""
    lines = [
        f"bets: {report.bet_count} (wins: {report.wins})",
        f"flips: {report.flip_count}",
        f"effective events: {report.effective_events} (effective wins: {report.effective_wins})",
        f"naive compound probability: {report.naive_compound:.12g}",
        f"true compound probability: {report.true_compound:.12g}",
        f"naive p-value: {report.naive_pvalue:.12g}",
        f"corrected p-value: {report.corrected_pvalue:.12g}",
    ]
    for i, r in enumerate(report.randomization):
        lines.append(
            f"bet {i}: outcome changed in {r.changed} of {r.trials} "
            f"re-placements (fraction {r.change_fraction:.12g})"
        )
    return "".join(line + "\n" for line in lines)
