"""A brute-force oracle for the compound-probability calculus.

The oracle resolves each bet by a linear scan of the flip times, then
enumerates all 2**f outcomes of the f <= 10 flips with exact ``Fraction``
probabilities. It shares no code with ``flipbet.probability`` or with the
trace's epoch columns. At biases 1/2, 1/4 and 3/4, with at most 10
occupied epochs and 30 bets, every product the library takes is exact in
a double (3**30 < 2**53), so every comparison below is exact.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from flipbet import (
    Bet,
    Face,
    Flip,
    GameConfig,
    analyze,
    make_trace,
    naive_compound_probability,
    true_compound_probability,
)

H, T = Face.HEADS, Face.TAILS
GRID = [i / 2 for i in range(21)]  # 0, 0.5, ..., 10: exact, so a bet can share a flip's time


def _governing(flip_times: list[float], t: float) -> int:
    """The last flip at or before ``t`` (flip-first), found by a linear scan."""
    governing = 0
    for i, flip_time in enumerate(flip_times):
        if flip_time <= t:
            governing = i
    return governing


@functools.cache
def _outcomes(flips: int, bias: Fraction) -> tuple[tuple[tuple[Face, ...], Fraction], ...]:
    """Every outcome of ``flips`` flips, with its probability."""
    factor = {H: bias, T: 1 - bias}
    return tuple(
        (outcome, math.prod(map(factor.__getitem__, outcome), start=Fraction(1)))
        for outcome in product((H, T), repeat=flips)
    )


def _joint_win(flip_times: list[float], bets: list[Bet], bias: Fraction) -> Fraction:
    """Sum over every flip outcome of P(outcome) x [every bet wins]."""
    governed = [(_governing(flip_times, bet.time), bet.prediction) for bet in bets]
    wins = (
        p
        for outcome, p in _outcomes(len(flip_times), bias)
        if all(outcome[i] is face for i, face in governed)
    )
    return sum(wins, Fraction(0))


@st.composite
def games(draw):
    bias = draw(st.sampled_from([Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)]))
    later = draw(st.lists(st.sampled_from(GRID[1:]), unique=True, max_size=9))
    flip_times = [0.0] + sorted(later)
    outcomes = [draw(st.sampled_from((H, T))) for _ in flip_times]
    bet = st.builds(Bet, st.sampled_from(GRID), st.sampled_from((H, T)))
    bets = sorted(draw(st.lists(bet, max_size=30)), key=lambda b: b.time)
    flips = [Flip(t, face) for t, face in zip(flip_times, outcomes)]
    trace = make_trace(GameConfig(horizon=10.0, coin_bias=float(bias)), flips, bets)
    return trace, bias, flip_times, outcomes, bets


@settings(deadline=None)
@given(game=games())
def test_true_compound_probability_is_the_joint_win_probability(game):
    trace, bias, flip_times, _, bets = game
    assert Fraction(true_compound_probability(trace)) == _joint_win(flip_times, bets, bias)


@settings(deadline=None)
@given(game=games())
def test_naive_compound_probability_is_the_product_of_marginals(game):
    trace, bias, flip_times, _, bets = game
    marginals = (_joint_win(flip_times, [bet], bias) for bet in bets)
    assert Fraction(naive_compound_probability(trace)) == math.prod(marginals, start=Fraction(1))


@settings(deadline=None)
@given(game=games())
def test_effective_counts_match_a_linear_scan(game):
    trace, _, flip_times, outcomes, bets = game
    predicted: dict[int, set[Face]] = {}  # governing flip -> the faces its bets predict
    for bet in bets:
        predicted.setdefault(_governing(flip_times, bet.time), set()).add(bet.prediction)
    wins = sum(faces == {outcomes[i]} for i, faces in predicted.items())
    report = analyze(trace)
    assert (report.effective_events, report.effective_wins) == (len(predicted), wins)
