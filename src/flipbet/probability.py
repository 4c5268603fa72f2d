"""Compound-probability calculus for betting records.

Two rival estimates of the probability of a betting record:

* the *naive* estimate treats every bet as an independent event and
  multiplies per-bet marginals (the bettor's view);
* the *true* estimate conditions each bet on the flip schedule: bets that
  ride the same flip are perfectly dependent, so each occupied flip span
  contributes a single factor (the flipper's view).

The bridge between the two is the epoch grouping: each bet is governed by
the latest flip at or before its time (flip-first), and the span from one
flip to the next is an *epoch*. All bets in an epoch face the same coin
state, so the number of occupied epochs, not the number of bets, is the
number of independent events in the record.

The grouping is not computed here. Each :class:`~flipbet.game.GameTrace`
builds its epoch columns once, at construction, where the flip-first rule
lives; every function below reads them, and :func:`group_by_epoch` returns
the trace's read-only view of them.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .game import Bet, EpochGrouping, Face, GameTrace, _probability, _shown

__all__ = [
    "EpochGrouping",
    "group_by_epoch",
    "pairwise_conditional_probability",
    "naive_compound_probability",
    "true_compound_probability",
    "effective_event_count",
]

def group_by_epoch(trace: GameTrace) -> EpochGrouping:
    """The trace's epoch table: its bets grouped by the flip governing each.

    The table's columns are built once, when the trace is constructed;
    every call returns the same view of them.
    """
    return trace._epochs


def pairwise_conditional_probability(
    bet_i: Bet,
    bet_j: Bet,
    grouping: EpochGrouping,
    coin_bias: float = 0.5,
) -> float:
    """P(the later bet wins | the earlier bet wins).

    Within one epoch the two bets face the same coin state, so the answer
    is 1 for matching predictions and 0 for contradictory ones. Across
    epochs the flips are independent and the conditional collapses to the
    later bet's marginal: ``coin_bias`` for a heads prediction, its
    complement for tails.

    Args:
        bet_i: The earlier bet; must belong to ``grouping``.
        bet_j: The later bet; must belong to ``grouping``.
        grouping: Epoch assignment of the betting record.
        coin_bias: Per-flip heads probability (0.5 for the fair coin).

    Raises:
        DomainError: If ``coin_bias`` is not a real number in [0, 1],
            either bet is not in the grouping, or ``bet_i`` comes after
            ``bet_j``.
    """
    coin_bias = _probability(coin_bias, "coin_bias")
    if bet_i.time > bet_j.time:
        raise DomainError(
            f"bet_i must not come after bet_j: {_shown(bet_i.time)} > {_shown(bet_j.time)}"
        )
    epochs = []
    for bet in (bet_i, bet_j):
        try:
            epochs.append(grouping.epoch_of_bet[grouping.bets.index(bet)])
        except ValueError:
            raise DomainError(f"{_shown(bet)} does not belong to this grouping") from None
    if epochs[0] == epochs[1]:
        return 1.0 if bet_i.prediction is bet_j.prediction else 0.0
    return coin_bias if bet_j.prediction is Face.HEADS else 1.0 - coin_bias


def naive_compound_probability(trace: GameTrace) -> float:
    """Joint win probability under the independence assumption.

    The product over bets of each bet's marginal win probability: 0.5 per
    bet for a fair coin, hence ``0.5 ** len(bets)``. An empty record gives
    the empty product, 1.
    """
    return _compound_from_counts(trace._bet_heads, trace.config.coin_bias)


def _compound_from_counts(heads: np.ndarray, coin_bias: float) -> float:
    # Each factor is coin_bias or its complement, so the product is one power
    # of each: a rounding in each (C library) pow and one in the product, down
    # into the subnormals and to 0.0 where the exact value rounds there.
    count = int(np.count_nonzero(heads))
    return coin_bias**count * (1.0 - coin_bias) ** (len(heads) - count)


def true_compound_probability(trace: GameTrace) -> float:
    """Joint win probability conditioned on the flip schedule.

    Bets are grouped by epoch. An epoch with contradictory predictions can
    never see all its bets win, so the result is 0. Otherwise each
    occupied epoch contributes one factor: the probability that its flip
    matches the epoch's unanimous prediction (0.5 for a fair coin). Bets
    sharing an epoch are fully dependent and add no factor beyond the
    first.
    """
    faces = trace._epoch_faces
    if (faces < 0).any():
        return 0.0
    return _compound_from_counts(faces == 1, trace.config.coin_bias)


def effective_event_count(trace: GameTrace) -> int:
    """Number of independent events in the record: occupied epochs.

    Bets separated by no flip share one coin state; placing several of
    them only divides one bet into pieces. The count of distinct epochs
    containing at least one bet is what a statistical evaluation may treat
    as the sample size. Zero bets give zero events.
    """
    return len(trace._occupied)
