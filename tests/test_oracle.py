"""Oracles for the numbers flipbet reports, sharing no code with it.

A brute-force oracle for the compound-probability calculus resolves each
bet by a linear scan of the flip times, then enumerates all 2**f outcomes
of the f <= 10 flips with exact ``Fraction`` probabilities. It shares no
code with ``flipbet.probability`` or with the trace's epoch columns. At
biases 1/2, 1/4 and 3/4, with at most 10 occupied epochs and 30 bets,
every product the library takes is exact in a double (3**30 < 2**53), so
every comparison against it is exact.

Binomial probabilities and tails are checked against sums of terms at 40
significant digits (mpmath), each input probability taken at its exact
binary value. Compound products of thousands of marginals, and products
aimed at the subnormals, are checked against ``b**h * (1 - b)**t`` at 300
bits (mpmath), with ``1 - b`` taken as the double the library uses.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from itertools import product

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipbet import (
    Bet,
    Face,
    Flip,
    GameConfig,
    analyze,
    binomial_pmf,
    losing_probability,
    make_trace,
    naive_compound_probability,
    random_reproduction_pvalue,
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


def _pmf_40(k: int, n: int, p: float) -> mpmath.mpf:
    """C(n, k) * p**k * (1-p)**(n-k) to 40 digits."""
    with mpmath.workdps(40):
        p = mpmath.mpf(p)
        return mpmath.mpf(math.comb(n, k)) * p**k * (1 - p) ** (n - k)


def _tail_40(lo: int, hi: int, n: int, p: float) -> mpmath.mpf:
    """P(lo <= X <= hi) for X ~ Binomial(n, p), to 40 digits: the terms from
    the range's most likely k outward, each side until a term falls below
    1e-45 of the sum (away from the mode they only fall)."""
    with mpmath.workdps(40):
        p_, q_ = mpmath.mpf(p), 1 - mpmath.mpf(p)
        top = min(max(int(mpmath.floor((n + 1) * p_)), lo), hi)
        first = total = _pmf_40(top, n, p)
        term = first
        for k in range(top, lo, -1):  # term k-1 from term k
            term = term * k * q_ / ((n - k + 1) * p_)
            total += term
            if term < total * mpmath.mpf("1e-45"):
                break
        term = first
        for k in range(top, hi):  # term k+1 from term k
            term = term * (n - k) * p_ / ((k + 1) * q_)
            total += term
            if term < total * mpmath.mpf("1e-45"):
                break
        return total


def _assert_accurate(got: float, exact: mpmath.mpf) -> None:
    """Within 1e-13 relative of a value of at least 1e-10, 1e-12 of one of
    at least 1e-300, and 1e-312 absolute below that."""
    error = abs(mpmath.mpf(got) - exact)
    if exact >= mpmath.mpf("1e-10"):
        assert error <= mpmath.mpf("1e-13") * exact, (got, exact)
    elif exact >= mpmath.mpf("1e-300"):
        assert error <= mpmath.mpf("1e-12") * exact, (got, exact)
    else:
        assert error <= mpmath.mpf("1e-312"), (got, exact)


def _binomial_cases(seed: int) -> tuple[list, list, list]:
    """Seeded (k, n, p) for the pmf, (n, p) for the lower tail and (k, m)
    for the upper tail, with n up to 10**5 and p fair, 0.6, uniform, or
    within 1e-9..0.1 of 0 or of 1. A k lies mostly within a few spreads
    of the mean, where the values span 1 down to below 1e-300, and now
    and then anywhere in [0, n]."""
    rng = random.Random(seed)
    probabilities = {
        "half": lambda: 0.5,
        "0.6": lambda: 0.6,
        "uniform": rng.random,
        "near 0": lambda: 10 ** -rng.uniform(1, 9),
        "near 1": lambda: 1 - 10 ** -rng.uniform(1, 9),
    }

    def trials() -> int:
        return int(10 ** rng.uniform(0, 5))

    def near(mean: float, spread: float, n: int) -> int:
        if rng.random() < 0.2:
            return rng.randint(0, n)
        k = round(mean + rng.gauss(0, 1) * (spread + 1) * rng.choice([1, 4, 16, 64]))
        return min(max(k, 0), n)

    pmf, losing, reproduction = [], [], []
    for kind, draw in probabilities.items():
        for _ in range(16):
            n, p = trials(), draw()
            k = near(n * p, math.sqrt(n * p * (1 - p)), n)
            pmf.append(pytest.param(k, n, p, id=f"{kind}-{k}-{n}"))
            n, p = trials(), draw()
            losing.append(pytest.param(n, p, id=f"{kind}-{n}"))
    for _ in range(24):
        m = trials()
        k = max(near(m / 2, math.sqrt(m) / 2, m), 1)
        reproduction.append(pytest.param(k, m, id=f"{k}-{m}"))
    return pmf, losing, reproduction


PMF_CASES, LOSING_CASES, REPRODUCTION_CASES = _binomial_cases(20190516)


@pytest.mark.parametrize("k, n, p", PMF_CASES)
def test_binomial_pmf_matches_a_40_digit_oracle(k, n, p):
    _assert_accurate(binomial_pmf(k, n, p), _pmf_40(k, n, p))
    _assert_accurate(binomial_pmf(0, n, p), _pmf_40(0, n, p))
    _assert_accurate(binomial_pmf(n, n, p), _pmf_40(n, n, p))


@pytest.mark.parametrize("n, p", LOSING_CASES)
def test_lower_tail_matches_a_40_digit_term_sum(n, p):
    _assert_accurate(losing_probability(n, p), _tail_40(0, (n + 1) // 2 - 1, n, p))


@pytest.mark.parametrize("k, m", REPRODUCTION_CASES)
def test_upper_tail_matches_a_40_digit_term_sum(k, m):
    _assert_accurate(random_reproduction_pvalue(k, m), _tail_40(k, m, m, 0.5))


def _one_bet_per_flip(faces: list[Face], bias: float):
    """A trace whose naive and true products are both over ``faces``: flip
    i at time i, one bet on ``faces[i]`` in its epoch."""
    flips = [Flip(float(i), H) for i in range(len(faces))]
    bets = [Bet(i + 0.5, face) for i, face in enumerate(faces)]
    return make_trace(GameConfig(horizon=float(len(faces)), coin_bias=bias), flips, bets)


def _exact_compound(faces: list[Face], bias: float) -> mpmath.mpf:
    """The product of the marginals of ``faces`` at 300 bits."""
    heads = faces.count(H)
    with mpmath.workprec(300):
        return mpmath.mpf(bias) ** heads * mpmath.mpf(1.0 - bias) ** (len(faces) - heads)


def _assert_products_match_the_oracle(faces: list[Face], bias: float) -> None:
    """Within 1e-14 relative of an exact value of at least 2**-1022, and
    1.5 subnormal ulps absolute below it: one rounding in each pow and one
    in the product."""
    trace = _one_bet_per_flip(faces, bias)
    exact = _exact_compound(faces, bias)
    for got in (naive_compound_probability(trace), true_compound_probability(trace)):
        with mpmath.workprec(300):
            error = abs(mpmath.mpf(got) - exact)
            if exact >= mpmath.ldexp(1, -1022):
                assert error <= mpmath.mpf("1e-14") * exact, (got, exact)
            else:
                assert error <= mpmath.ldexp(1.5, -1074), (got, exact)


@pytest.mark.parametrize("bias", [0.5, 0.6, 1e-3, 1 - 1e-3])
@pytest.mark.parametrize("length", [4095, 4096, 4097, 12289])
def test_compound_products_match_a_300_bit_oracle(length, bias):
    rng = random.Random(length)
    # Heads about as often as the coin shows them, so a product at bias
    # 1e-3 or 1 - 1e-3 stays above 0.
    faces = [H if rng.random() < bias else T for _ in range(length)]
    _assert_products_match_the_oracle(faces, bias)


def _subnormal_cases(seed: int, count: int) -> list:
    """Seeded (heads, tails, bias) whose exact product lies between 2**-1080
    and 2**-1010: across the smallest normals, the subnormals and the
    rounding to 0.0, with at most 20000 factors."""
    rng = random.Random(seed)
    biases = [0.5, 0.6, 0.7, 1e-3, 1 - 1e-3]
    cases = []
    while len(cases) < count:
        bias = biases[len(cases) % len(biases)] if len(cases) < 10 else rng.uniform(0.01, 0.99)
        target = rng.uniform(-1080, -1010)  # log2 of the product
        heads = round(rng.random() * target / math.log2(bias))
        tails = round((target - heads * math.log2(bias)) / math.log2(1.0 - bias))
        if tails >= 0 and heads + tails <= 20000:
            cases.append(pytest.param(heads, tails, bias, id=f"{heads}H-{tails}T-{bias:.3g}"))
    return cases


@pytest.mark.parametrize("heads, tails, bias", _subnormal_cases(20190516, 40))
def test_products_near_the_subnormals_match_a_300_bit_oracle(heads, tails, bias):
    _assert_products_match_the_oracle([H] * heads + [T] * tails, bias)
