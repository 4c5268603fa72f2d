"""Significance of betting records: how hard are they to reproduce by chance?

Three complementary instruments:

* exact binomial tails, for questions like "what is the probability that a
  rigged coin with a 60% edge still loses out after n tosses";
* the random-reproduction p-value, the chance a fair guesser matches or
  beats a record, counted over *effective* events (occupied epochs), not
  raw bets;
* the bet-time randomization test: re-place one bet uniformly at random in
  an interval and measure how often its outcome changes. If no flip falls
  in the interval, one flip governs it: the outcome never changes, which
  shows the bet carried no forecasting information of its own, and no
  draw is needed. Otherwise the draws come from the Philox stream keyed
  by the test's seed, in ``[0, 2**64 - 1]``, each resolved flip-first.

A vectorized Monte Carlo driver doubles as the independent oracle for the
analytic compound probabilities.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError
from .game import (
    _MAX_SEED,
    Bet,
    Face,
    GameConfig,
    GameTrace,
    _check_schedule,
    _columns,
    _generator,
    _governing_flip,
    _integer,
    _is_number,
    _probability,
    _record_columns,
    _rekey,
    _seed,
    _shown,
)

__all__ = [
    "RandomizationResult",
    "MonteCarloEstimate",
    "binomial_pmf",
    "losing_probability",
    "random_reproduction_pvalue",
    "randomization_test",
    "monte_carlo_compound",
    "derive_seed",
]

# stirlerr(n) = log(n!) - log(sqrt(2*pi*n) * (n/e)**n) for n = 1..15, to
# double precision; index 0 is a placeholder. Above 15, _stirlerr's
# asymptotic series is as accurate (Loader 2000).
_STIRLERR = (
    0.0,
    0.08106146679532726,
    0.0413406959554093,
    0.02767792568499834,
    0.020790672103765093,
    0.016644691189821193,
    0.013876128823070748,
    0.01189670994589177,
    0.010411265261972096,
    0.009255462182712733,
    0.00833056343336287,
    0.007573675487951841,
    0.00694284010720953,
    0.006408994188004207,
    0.0059513701127588475,
    0.005554733551962801,
)

_LOG_2PI = 1.8378770664093453  # log(2*pi)

# A binomial tail stops its walk once the terms it has not added are
# bounded by this share of the running total.
_NEGLIGIBLE = 2.0**-60

# Working memory of one Monte Carlo batch: one double per trial for the
# epoch being drawn, so a batch holds _BATCH_BYTES // 8 trials. The
# estimate does not depend on it: each epoch's stream is read in order,
# batch after batch. A block of randomization tests holds as many bets as
# fit _BATCH_BYTES at one double per re-placement, and a bet with more
# re-placements than fit sits alone in its block and is drawn in chunks of
# that size, each continuing its stream; no count depends on it.
_BATCH_BYTES = 8 << 20

# The largest trial count of a randomization test or result: the largest
# count an int64 holds, so every count fits the columns that hold or key them.
_MAX_TRIALS = 2**63 - 1


def derive_seed(base_seed: int, index: int) -> int:
    """Deterministic per-stream seed for parallel or indexed runs.

    SplitMix64 finalizer over ``(base_seed, index)``. Streams derived for
    distinct indices are statistically independent, and the mapping never
    depends on evaluation order, so serial and parallel runs agree.
    ``base_seed`` is a seed and ``index`` an integer, each in
    ``[0, 2**64 - 1]``: every bit of both reaches the result.
    """
    base_seed, index = _seed(base_seed, "base_seed"), _integer(index, "index", 0, _MAX_SEED)
    return _derived(base_seed, np.array([index], np.uint64)).item()


def _derived(base_seed: int, indices: np.ndarray) -> np.ndarray:
    """:func:`derive_seed` without its checks, elementwise on a uint64 array of indices."""
    return _mix64(base_seed ^ _mix64(indices))


def _mix64(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer (Steele, Lea & Flood, OOPSLA 2014), elementwise
    on a uint64 array, whose arithmetic wraps modulo 2**64."""
    z = z + 0x9E3779B97F4A7C15
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


@dataclass(frozen=True)
class RandomizationResult:
    """Outcome counts of a bet-time randomization test.

    Raises:
        DomainError: If ``trials`` is not an integer in ``[1, 2**63 - 1]`` or
            ``changed`` one in ``[0, trials]`` (a bool is neither).
    """

    trials: int
    changed: int

    def __post_init__(self) -> None:
        trials = _integer(self.trials, "trials", 1, _MAX_TRIALS)
        object.__setattr__(self, "changed", _integer(self.changed, "changed", 0, trials))
        object.__setattr__(self, "trials", trials)

    @property
    def change_fraction(self) -> float:
        """Share of re-placements that changed the outcome: ``changed / trials``."""
        return self.changed / self.trials


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A Monte Carlo probability estimate with its normal-approximation error.

    ``standard_error`` is ``sqrt(estimate * (1 - estimate) / trials)``, which
    is 0 at estimates of 0 and 1; :meth:`wilson_interval` stays honest there.

    Raises:
        DomainError: If ``trials`` is not an integer >= 1 or ``successes``
            not an integer in ``[0, trials]`` (a bool is neither).
    """

    trials: int
    successes: int
    estimate: float
    standard_error: float

    def __post_init__(self) -> None:
        trials = _integer(self.trials, "trials", 1)
        object.__setattr__(self, "successes", _integer(self.successes, "successes", 0, trials))
        object.__setattr__(self, "trials", trials)

    def wilson_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Wilson score interval ``(low, high)`` for the success probability.

        The interval of probabilities within ``z`` standard errors of the
        estimate, each error taken at the probability itself rather than at
        the estimate (Brown, Cai & DasGupta, "Interval estimation for a
        binomial proportion", Statist. Sci. 2001). Unlike the normal
        approximation, it has positive width at 0 and at all successes;
        ``z = 1.96`` gives about 95% coverage.

        Raises:
            DomainError: If ``z`` is not a real number in ``(0, 1e150]``,
                where its square is a finite float.
        """
        if not (_is_number(z) and 0.0 < z <= 1e150):
            raise DomainError(f"z must be a number in (0, 1e150], got {_shown(z)}")
        n, z2 = self.trials, z * z

        def low(s: int) -> float:
            # The lower root of (s/n - x)**2 = z2 * x * (1 - x) / n; exactly
            # 0 at s = 0, since sqrt(z * z) is z in floating point.
            return (2 * s + z2 - z * math.sqrt(z2 + 4 * s * (n - s) / n)) / (2 * (n + z2))

        # The upper end mirrors the lower one of the failures.
        return low(self.successes), 1.0 - low(n - self.successes)


def binomial_pmf(k: int, n: int, p: float) -> float:
    """P(exactly k successes in n independent trials of probability p).

    C(n, k) * p**k * (1-p)**(n-k) in Loader's saddle-point form (C. Loader,
    "Fast and accurate computation of binomial probabilities", 2000): its
    log is built from the Stirling remainders of n!, k! and (n-k)! and the
    deviances of k from np and of n-k from n(1-p), not from differences of
    log-factorials, so the result is accurate to about 1e-13 relative for
    any n a float holds. The end terms are plain powers: p**n at k = n, and
    (1-p)**n at k = 0 where 1 - p is exact (p >= 1/2), so a fair coin's
    end terms are exact powers of 2.

    Raises:
        DomainError: If k is outside [0, n], n is too large for a float,
            or p is outside [0, 1].
    """
    n = _trial_count(n, "n")
    k = _integer(k, "k", 0, n)
    p = _probability(p)
    if p == 0.0:
        return 1.0 if k == 0 else 0.0
    if p == 1.0:
        return 1.0 if k == n else 0.0
    if k == n:
        return p**n
    q = 1.0 - p
    if k == 0:
        # Below 1/2, 1 - p is rounded, and its n-th power would carry that
        # rounding n times over.
        return q**n if p >= 0.5 else math.exp(n * math.log1p(-p))
    # k - n*p rounded once, from p's exact binary fraction: the deviances
    # hang on this difference, which a rounded n*p would blur by n*p*2**-53.
    num, den = p.as_integer_ratio()
    d = (k * den - n * num) / den
    log_core = (
        _stirlerr(n) - _stirlerr(k) - _stirlerr(n - k) - _bd0(k, d, n * p) - _bd0(n - k, -d, n * q)
    )
    return math.exp(log_core - 0.5 * (_LOG_2PI + math.log(k * (n - k) / n)))


def _stirlerr(n: int) -> float:
    """log(n!) - log(sqrt(2*pi*n) * (n/e)**n), the error of Stirling's
    formula, for n >= 1: from the table up to 15, above it from the first
    five terms of its asymptotic series, whose sixth is below 2e-16."""
    if n <= 15:
        return _STIRLERR[n]
    x = float(n)
    v = 1.0 / (x * x)
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - v / 1188) * v) * v) * v) / x


def _bd0(x: float, d: float, m: float) -> float:
    """x*log(x/m) + m - x, the deviance of x > 0 from a mean m > 0, given
    their difference d = x - m to full precision.

    Where x is within a factor 3 of m, the closed form would cancel to a
    small difference of large numbers, so it is summed as the series
    d*v + 2x*(v**3/3 + v**5/5 + ...), with v = d/(x + m) below 1/2; its
    terms shrink at least fourfold each.
    """
    if abs(d) >= 0.5 * (x + m):
        return x * math.log(x / m) + m - x
    v = d / (x + m)
    total, power, v2, j = d * v, 2.0 * x * v, v * v, 3
    while True:
        power *= v2
        extended = total + power / j
        if extended == total:
            return total
        total, j = extended, j + 2


def _trial_count(value: object, name: str, lo: int = 0) -> int:
    """The integer rule for a binomial trial count, which must also be a real
    number: an int too large for a float has no float to compute with."""
    n = _integer(value, name, lo)
    if not _is_number(n):
        raise DomainError(f"{name} must be an integer a float can hold, got {_shown(n)}")
    return n


def _binomial_tail(lo: int, hi: int, n: int, p: float) -> float:
    """Sum of the binomial pmf over lo <= k <= hi (callers pass lo <= hi).

    A range that holds the mode floor((n+1)p) is summed through its
    complement, 1 - P(k < lo) - P(k > hi): the result is then at least
    about 1/2, so the subtraction costs at most about 1e-16. Every sum left
    runs outward from the mode, so each is anchored at its end nearest the
    mode and stops once the terms still to come are negligible, after
    O(sqrt(n)) steps however far the range reaches.
    """
    mode = min(int((n + 1) * p), n)
    if lo <= mode <= hi:
        below = _outward_sum(lo - 1, 0, n, p) if lo > 0 else 0.0
        above = _outward_sum(hi + 1, n, n, p) if hi < n else 0.0
        return 1.0 - below - above
    return _outward_sum(lo, hi, n, p) if mode < lo else _outward_sum(hi, lo, n, p)


def _outward_sum(start: int, end: int, n: int, p: float) -> float:
    """Sum of the binomial pmf over k from ``start`` to ``end``, either way
    round, where the mode lies beyond ``start``, away from ``end``.

    From the anchor pmf(start), the term recurrence goes down by
    pmf(k-1) = pmf(k) * k*q / ((n-k+1)*p) and up by
    pmf(k+1) = pmf(k) * (n-k)*p / ((k+1)*q): both a*u / ((n+1-a)*v), with
    a = k going down and a = n - k going up. Moving away from the mode the
    ratios only fall, so the terms from one with ratio r on sum to at most
    that term / (1 - r); the walk stops once this bound is below
    ``_NEGLIGIBLE`` of the running total, which is compensated. At p = 0
    or 1 the first ratio is 0, so the walk needs no special case.
    """
    term = total = binomial_pmf(start, n, p)
    carry, q = 0.0, 1.0 - p
    if end < start:
        a_values, u, v = range(start, end, -1), q, p
    else:
        a_values, u, v = range(n - start, n - end, -1), p, q
    for a in a_values:
        ratio = (a * u) / ((n + 1 - a) * v)
        term *= ratio
        if term <= _NEGLIGIBLE * total * (1.0 - ratio):
            break
        addend = term - carry
        t = total + addend
        carry = (t - total) - addend
        total = t
    return total


def losing_probability(n: int, p: float) -> float:
    """Probability that n trials at success probability p end with a losing record.

    Losing means strictly more losses than wins; an even split is not a
    loss. Equivalently the lower binomial tail P(X <= ceil(n/2) - 1).
    For an edge p > 0.5 this tail shrinks towards zero as n grows, which
    is what separates a real edge from a lucky streak.

    Raises:
        DomainError: If n < 1, n is too large for a float, or p outside [0, 1].
    """
    n = _trial_count(n, "n", 1)
    p = _probability(p)
    return _binomial_tail(0, (n + 1) // 2 - 1, n, p)


def random_reproduction_pvalue(k_wins: int, m_effective: int) -> float:
    """Chance a fair random guesser matches or beats k wins out of m events.

    ``m_effective`` must be the number of *effective* events (occupied
    epochs), not the raw bet count: bets that share an epoch are one event
    and a fair guesser reproduces them with a single guess. The value is
    the upper binomial tail P(X >= k_wins) for X ~ Binomial(m, 0.5), and 1
    when the record holds no events at all.

    Raises:
        DomainError: If k_wins is negative or exceeds m_effective, or
            m_effective is too large for a float.
    """
    m_effective = _trial_count(m_effective, "m_effective")
    k_wins = _integer(k_wins, "k_wins", 0, m_effective)
    if k_wins == 0:
        return 1.0
    return _binomial_tail(k_wins, m_effective, m_effective, 0.5)


def randomization_test(
    trace: GameTrace,
    bet_index: int,
    interval: tuple[float, float] | None = None,
    trials: int = 1000,
    seed: int = 0,
) -> RandomizationResult:
    """Re-place one bet uniformly at random and count outcome changes.

    Each trial draws a new time in ``interval``, re-resolves the chosen
    bet (same prediction) against the fixed flip record, and compares its
    win/loss outcome with the original. The times are the draws of
    ``uniform(lo, hi, trials)`` on the Philox stream keyed by ``seed``,
    each resolved flip-first: a time equal to a flip's time falls in that
    flip's epoch. The change fraction is zero, the outcome invariant under
    where the bet sits, whenever no flip time falls strictly inside the
    interval up to the original bet time. An interval that one flip
    governs needs no draw: the fraction is 0 or 1.

    Args:
        trace: The game record; flips and other bets stay fixed.
        bet_index: Index of the bet to re-place.
        interval: ``(lo, hi)`` inside the game window. Defaults to the
            span from the preceding bet's time (or 0 for the first bet) to
            the chosen bet's time.
        trials: Number of random re-placements, at most ``2**63 - 1``.
        seed: Key of the re-placement stream, in ``[0, 2**64 - 1]``.

    Raises:
        DomainError: On a bad index, interval, trial count or seed.
    """
    bet_index = _integer(bet_index, "bet_index", 0, len(trace._bet_times) - 1)
    trials = _integer(trials, "trials", 1, _MAX_TRIALS)
    seed = _seed(seed)
    if interval is None:
        lo = trace._bet_times[bet_index - 1].item() if bet_index > 0 else 0.0
        hi = trace._bet_times[bet_index].item()
    else:
        try:
            lo, hi = interval
        except (TypeError, ValueError):
            raise DomainError(f"interval must be a (lo, hi) pair, got {_shown(interval)}") from None
    if not (_is_number(lo) and _is_number(hi) and 0.0 <= lo <= hi <= trace.config.horizon):
        raise DomainError(
            f"interval ({_shown(lo)}, {_shown(hi)}) must satisfy 0 <= lo <= hi <= horizon"
        )
    bet, key = np.array([bet_index]), np.array([seed], np.uint64)
    lo, hi = np.array([[lo], [hi]], float)
    return RandomizationResult(trials, _replacement_changes(trace, bet, lo, hi, key, trials).item())


def _randomization_tests(trace: GameTrace, trials: int, seed: int) -> tuple[RandomizationResult, ...]:
    """``randomization_test(trace, i, trials=trials, seed=derive_seed(seed, i))``
    for every bet i, computed for all bets at once; ``trials`` and ``seed``
    are valid, as :class:`~flipbet.report.AnalysisOptions` checks them.
    Every distinct count is one shared result, for memory only: writers key by value.
    """
    hi = trace._bet_times
    bets = np.arange(len(hi))
    lo = np.concatenate(([0.0], hi))[:-1]
    keys = _derived(seed, bets.astype(np.uint64))
    changed = _replacement_changes(trace, bets, lo, hi, keys, trials).tolist()
    results = {c: RandomizationResult(trials, c) for c in set(changed)}
    return tuple(map(results.__getitem__, changed))


def _replacement_changes(
    trace: GameTrace, bets: np.ndarray, lo: np.ndarray, hi: np.ndarray, keys: np.ndarray, trials: int
) -> np.ndarray:
    """How many of ``trials`` re-placements change the outcome of bet
    ``bets[i]``, drawn in ``[lo[i], hi[i]]`` from the stream keyed by ``keys[i]``.

    A draw is ``Generator.uniform``'s, ``lo + (hi - lo) * Generator.random()``.
    It lies in ``[lo, lo + (hi - lo)]``, as rounding is monotone, and may pass
    ``hi``. Where one flip governs that range, the count needs no draw: 0 if
    it shows the bet's own face, else ``trials``. Other bets draw from their
    own streams, re-keyed on one generator; one ``searchsorted`` resolves a
    block of them. A bet whose row is wider than the block sits alone in it,
    and its stream is read in column chunks, each continuing the last.
    """
    flip_times, flip_heads = trace._flip_times, trace._flip_heads
    span = hi - lo
    first = _governing_flip(flip_times, lo)
    own_face = trace._bet_heads[bets] == trace._won[bets]  # a win names the coin's face
    counts = np.where(flip_heads[first] == own_face, 0, trials)
    drawn = np.flatnonzero(first != _governing_flip(flip_times, np.maximum(hi, lo + span)))
    keys = keys[drawn].tolist()
    generator = _generator(0)
    width = _BATCH_BYTES // 8
    cols = min(trials, width)
    rows = width // cols
    for start in range(0, len(drawn), rows):
        block = drawn[start : start + rows]
        changed = 0
        for column in range(0, trials, cols):
            draws = np.empty((len(block), min(cols, trials - column)))
            for row, key in zip(draws, keys[start : start + rows]):
                if not column:
                    _rekey(generator, key)
                generator.random(out=row)
            # A row's count does not depend on the order of its draws, and
            # searchsorted finds sorted times faster.
            times = np.sort(lo[block, None] + span[block, None] * draws, axis=1)
            epochs = _governing_flip(flip_times, times)
            changed += np.count_nonzero(flip_heads[epochs] != own_face[block, None], axis=1)
        counts[block] = changed
    return counts


def monte_carlo_compound(
    config: GameConfig,
    flip_times: Sequence[float],
    bet_plan: Iterable[Bet],
    trials: int,
    base_seed: int,
) -> MonteCarloEstimate:
    """Estimate the probability that every bet wins, by repeated play.

    The fraction of independently simulated games in which all bets won,
    with its binomial standard error. Trial i sees flip j as double i of
    the random stream keyed by ``derive_seed(base_seed, j)``, so the result
    does not depend on chunking or evaluation order and parallel runs
    reproduce serial ones; an m-trial run sees the first m trials of any
    longer one.

    Only the flips that govern a bet are drawn: each occupied epoch reads
    one contiguous run of its own stream per batch of trials, and a
    certain face (bias 0 or 1) needs no draw.

    Args:
        config: Game parameters; the coin bias drives each flip.
        flip_times: Same schedule contract as :func:`~flipbet.game.simulate_game`.
        bet_plan: Bets to resolve in every simulated game.
        trials: Number of simulated games (>= 1).
        base_seed: Seed from which each flip's stream is derived, in
            ``[0, 2**64 - 1]``.

    Raises:
        DomainError: If ``trials`` < 1 or ``base_seed`` is out of range.
        ValidationError: Same schedule checks as the simulator.
    """
    trials = _integer(trials, "trials", 1)
    base_seed = _seed(base_seed, "base_seed")
    bets = tuple(bet_plan)
    flips = _columns(flip_times)
    _check_schedule(config.horizon, flips, _record_columns(bets, "prediction"))
    times = flips.times.tolist()

    # One required face per occupied epoch; a conflicting epoch makes the
    # joint win impossible in every trial. Derived here on purpose rather
    # than read from a trace's epoch table: this estimate is the independent
    # cross-check that tests compare the analytic probabilities against.
    required: dict[int, Face] = {}
    for b in bets:
        epoch = bisect_right(times, b.time) - 1
        face = required.setdefault(epoch, b.prediction)
        if face is not b.prediction:
            return MonteCarloEstimate(trials, 0, 0.0, 0.0)

    bias = config.coin_bias
    # Draws lie in [0, 1): at bias 1 every flip lands heads and at bias 0
    # tails, so each required face is certain or impossible without a draw.
    if bias in (0.0, 1.0):
        shown = Face.HEADS if bias == 1.0 else Face.TAILS
        if any(face is not shown for face in required.values()):
            return MonteCarloEstimate(trials, 0, 0.0, 0.0)
        required = {}
    if not required:
        return MonteCarloEstimate(trials, trials, 1.0, 0.0)
    keys = _derived(base_seed, np.fromiter(required, np.uint64, len(required))).tolist()
    streams = [(_generator(key), face is Face.HEADS) for key, face in zip(keys, required.values())]
    rows = _BATCH_BYTES // 8
    wins = 0
    for start in range(0, trials, rows):
        size = min(rows, trials - start)
        won = np.ones(size, bool)
        for stream, heads in streams:
            won &= (stream.random(size) < bias) == heads
        wins += int(np.count_nonzero(won))
    estimate = wins / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return MonteCarloEstimate(trials, wins, estimate, stderr)
