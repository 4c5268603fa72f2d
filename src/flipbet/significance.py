"""Significance of betting records: how hard are they to reproduce by chance?

Three complementary instruments:

* exact binomial tails, for questions like "what is the probability that a
  rigged coin with a 60% edge still loses out after n tosses";
* the random-reproduction p-value, the chance a fair guesser matches or
  beats a record, counted over *effective* events (occupied epochs), not
  raw bets;
* the bet-time randomization test: re-place one bet uniformly at random in
  an interval and measure how often its outcome changes. If no flip falls
  in the interval, the outcome never changes, which shows the bet carried
  no forecasting information of its own. Each re-placement resolves
  flip-first, like every bet, and the draws of one test come from the
  Philox stream keyed by its seed, an integer in ``[0, 2**64 - 1]``.

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

# Above this, C(n, k) no longer fits a double and the evaluation switches
# to log-gamma.
_EXACT_COMB_LIMIT = 1000

# Smallest exponent at which p**k keeps full precision (normal floats only,
# with a one-unit margin against the subnormal boundary).
_LOG_MIN_NORMAL = math.log(2.2250738585072014e-308) + 1.0

# Working memory of one Monte Carlo batch: one double per trial for the
# epoch being drawn, so a batch holds _BATCH_BYTES // 8 trials. The
# estimate does not depend on it: each epoch's stream is read in order,
# batch after batch.
_BATCH_BYTES = 8 << 20


def derive_seed(base_seed: int, index: int) -> int:
    """Deterministic per-stream seed for parallel or indexed runs.

    SplitMix64 finalizer over ``(base_seed, index)``. Streams derived for
    distinct indices are statistically independent, and the mapping never
    depends on evaluation order, so serial and parallel runs agree.
    ``base_seed`` is a seed and ``index`` an integer, each in
    ``[0, 2**64 - 1]``: every bit of both reaches the result.
    """
    base_seed, index = _seed(base_seed, "base_seed"), _integer(index, "index", 0, _MAX_SEED)
    return _mix64(base_seed ^ _mix64(index))


def _mix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MAX_SEED
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MAX_SEED
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MAX_SEED
    return z ^ (z >> 31)


@dataclass(frozen=True)
class RandomizationResult:
    """Outcome counts of a bet-time randomization test.

    Raises:
        DomainError: If ``trials`` is not an integer >= 1 or ``changed``
            not an integer in ``[0, trials]`` (a bool is neither).
    """

    trials: int
    changed: int

    def __post_init__(self) -> None:
        trials = _integer(self.trials, "trials", 1)
        object.__setattr__(self, "changed", _integer(self.changed, "changed", 0, trials))
        object.__setattr__(self, "trials", trials)

    @property
    def change_fraction(self) -> float:
        """Share of re-placements that changed the outcome: ``changed / trials``."""
        return self.changed / self.trials


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A Monte Carlo probability estimate with its normal-approximation error.

    ``standard_error`` is ``sqrt(estimate * (1 - estimate) / trials)``.
    """

    trials: int
    successes: int
    estimate: float
    standard_error: float


def binomial_pmf(k: int, n: int, p: float) -> float:
    """P(exactly k successes in n independent trials of probability p).

    C(n, k) * p**k * (1-p)**(n-k), evaluated with the exact integer
    binomial coefficient whenever the coefficient and both power factors
    fit normal doubles (the coefficient is multiplied in first, so the
    product cannot underflow before it is finished), and via log-gamma
    otherwise, so the result stays accurate for any n.

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
    log_p_part = k * math.log(p)
    log_q_part = (n - k) * math.log1p(-p)
    if n <= _EXACT_COMB_LIMIT and log_p_part >= _LOG_MIN_NORMAL and log_q_part >= _LOG_MIN_NORMAL:
        return math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
    log_pmf = (
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + log_p_part
        + log_q_part
    )
    return math.exp(log_pmf)


def _trial_count(value: object, name: str, lo: int = 0) -> int:
    """The integer rule for a binomial trial count, which must also be a real
    number: an int too large for a float has no float to compute with."""
    n = _integer(value, name, lo)
    if not _is_number(n):
        raise DomainError(f"{name} must be an integer a float can hold, got {_shown(n)}")
    return n


def _binomial_tail(lo: int, hi: int, n: int, p: float) -> float:
    """Sum of the binomial pmf over lo <= k <= hi.

    Anchored at the in-range mode and extended outward by the term
    recurrence pmf(k+1) = pmf(k) * (n-k)/(k+1) * p/(1-p), with compensated
    summation. Walking away from the mode only ever multiplies by ratios
    below 1, so the recurrence cannot overflow and terms that underflow to
    zero end the walk early. Callers pass lo <= hi. At p = 0 or 1 the
    anchor clamps to the range end nearest the mass and the first outward
    ratio is 0, so the walk needs no special case.
    """
    anchor = min(max(int((n + 1) * p), lo), hi)
    anchor_term = binomial_pmf(anchor, n, p)
    total, carry, q = anchor_term, 0.0, 1.0 - p
    # Down to lo, then up to hi. Down from term k the ratio is
    # k*q / ((n-k+1)*p), up it is (n-k)*p / ((k+1)*q): both are
    # a*u / ((n+1-a)*v), with a = k going down and a = n - k going up.
    for a_values, u, v in ((range(anchor, lo, -1), q, p), (range(n - anchor, n - hi, -1), p, q)):
        term = anchor_term
        for a in a_values:
            term *= (a * u) / ((n + 1 - a) * v)
            if term == 0.0:
                break
            addend = term - carry
            t = total + addend
            carry = (t - total) - addend
            total = t
    return min(total, 1.0)


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
    win/loss outcome with the original. All ``trials`` times are one
    ``uniform(lo, hi, trials)`` draw from the Philox stream keyed by
    ``seed``, and each resolves flip-first: a time equal to a flip's time
    falls in that flip's epoch. A change fraction of zero means the bet's
    outcome is invariant under where it sits in the interval; in
    particular it is exactly zero whenever no flip time falls strictly
    inside the interval up to the original bet time.

    Args:
        trace: The game record; flips and other bets stay fixed.
        bet_index: Index of the bet to re-place.
        interval: ``(lo, hi)`` inside the game window. Defaults to the
            span from the preceding bet's time (or 0 for the first bet) to
            the chosen bet's time.
        trials: Number of random re-placements.
        seed: Key of the re-placement stream, in ``[0, 2**64 - 1]``.

    Raises:
        DomainError: On a bad index, interval, trial count or seed.
    """
    bet_index = _integer(bet_index, "bet_index", 0, len(trace._bet_times) - 1)
    trials = _integer(trials, "trials", 1)
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
    draws = _generator(seed).uniform(lo, hi, trials)
    epochs = _governing_flip(trace._flip_times, draws)
    # Same prediction, so the outcome changes exactly where the coin shows
    # another face than in the bet's own epoch.
    own_face = trace._flip_heads[trace._epoch[bet_index]]
    changed = int(np.count_nonzero(trace._flip_heads[epochs] != own_face))
    return RandomizationResult(trials=trials, changed=changed)


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
    streams = [
        (_generator(derive_seed(base_seed, e)), face is Face.HEADS) for e, face in required.items()
    ]
    rows = max(1, _BATCH_BYTES // 8)
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
